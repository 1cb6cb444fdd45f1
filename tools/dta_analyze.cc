// dta_analyze: whole-tree semantic static analysis for lock order and
// determinism flow.
//
// dta_lint (same directory) checks line-local conventions; this tool checks
// the two properties that are only visible globally:
//
//   lock-cycle      The inter-procedural lock-acquisition graph must be
//                   acyclic. An edge A -> B means some execution path
//                   acquires B while holding A — directly (a MutexLock
//                   nested inside another's scope), through a call chain
//                   (f holds A and calls g, which acquires B, possibly
//                   transitively), or via a REQUIRES(A) contract (the
//                   caller holds A for the whole body). Two paths that
//                   disagree on the order of A and B can deadlock under
//                   the right interleaving even though every individual
//                   mutex is used correctly — exactly the failure mode
//                   Clang's per-function -Wthread-safety cannot see.
//
//   lock-manifest   The computed edge set is diffed against the frozen,
//                   reviewed manifest tools/lock_order.manifest. A new
//                   edge is an error at the acquisition site until a human
//                   blesses it (rerun with --write-manifest and review the
//                   diff); a manifest entry no longer backed by code is an
//                   error at its manifest line. Lock-order decisions
//                   therefore show up in code review as manifest diffs,
//                   not as silent graph growth.
//
//   unordered-flow  Iterating a std::unordered_map/set and letting the
//                   loop body feed emission (stream <<, Emit/Write/Export/
//                   Serialize/Print/Output calls) or order-sensitive
//                   accumulation (+=, push_back/emplace_back/append)
//                   without an intervening sort leaks hash-table iteration
//                   order into bytes the project promises are identical
//                   across runs, thread counts, shard counts, and tenant
//                   counts. Accumulation into a container that is sorted
//                   later in the same block is the blessed pattern and is
//                   not flagged.
//
// --audit adds the annotation-coverage rules:
//
//   audit-guarded   Every dta::Mutex class member must have at least one
//                   GUARDED_BY(it) member in the same class — a mutex that
//                   guards nothing is either dead or hiding unannotated
//                   shared state.
//   audit-excludes  Every function that directly acquires an annotatable
//                   mutex (a member of its own class, or a member reached
//                   through a parameter) must declare EXCLUDES (or
//                   ACQUIRE) for it, so callers inherit the no-deadlock
//                   contract. Acquisitions rooted in locals or indexed
//                   through containers (shards_[i]->mu) are exempt: Clang
//                   cannot express them either.
//
// Mechanics: files are lexed by tools/cpplex (comments, strings, and
// preprocessor-dead regions never reach the parser), then a scope-tracking
// token parser recovers namespaces, classes, Mutex members, GUARDED_BY
// arguments, function signatures with their REQUIRES/EXCLUDES/ACQUIRE/
// RELEASE annotations, and per-function body events: MutexLock
// acquisitions (with the set of locks held, maintained by brace scope) and
// calls (name, qualifier, argument count). Lock expressions are normalized
// to class-qualified identities (write_mu_ inside SocketChannel becomes
// dta::rpc::SocketChannel::write_mu_) so annotations, acquisitions, and
// manifest entries all speak the same names. Calls resolve to parsed
// functions by qualifier, name, and argument-count compatibility —
// ambiguity means no edge (conservative: lock edges come only from
// resolutions we are sure of). Calls through a std::function or a function
// pointer resolve to nothing, so a callback invoked under a lock must not
// take another lock: the edge it would add is invisible here. Transitive
// acquisition sets are a fixpoint over the call graph.
//
// Findings use dta_lint's conventions: per-line `// lint: <rule>`
// suppressions (same line or the line above), `// expect: <rule>` fixture
// markers under --check-expectations, --disable=<rules>, and the same exit
// codes (0 clean, 1 findings, 2 usage error).
//
// Usage:
//   dta_analyze [--root=DIR] [--exclude=p1,p2] [--disable=r1,r2]
//               [--audit] [--manifest=PATH | --no-manifest]
//               [--write-manifest] [--dot=FILE] [--check-expectations]
//               PATH...

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cpplex.h"

namespace {

namespace fs = std::filesystem;

using dta::lex::Finding;
using dta::lex::SourceLine;
using dta::lex::Token;

const std::vector<std::string> kDefaultRules = {"lock-cycle", "lock-manifest",
                                                "unordered-flow"};
const std::vector<std::string> kAuditRules = {"audit-guarded",
                                             "audit-excludes"};

// ---- Parsed model --------------------------------------------------------

// A lock expression as it appears in source (MutexLock argument, annotation
// argument), before normalization.
struct LockExpr {
  std::vector<std::string> idents;  // identifier tokens, in order
  bool has_bracket = false;         // contains [ — container-indexed
  bool single_ident = false;        // exactly one token total
  size_t line = 0;                  // 0-based
};

struct Acquisition {
  LockExpr expr;
  size_t line = 0;
  std::vector<size_t> held;  // indices of earlier acquisitions still live
};

struct CallSite {
  std::string name;
  std::string qualifier;      // X in X::name(...), empty otherwise
  bool has_receiver = false;  // preceded by . or ->
  size_t argc = 0;
  size_t line = 0;
  std::vector<size_t> held;
};

struct FunctionInfo {
  std::string file;
  std::string qualified;  // dta::ShardRouter::RecordOutcome
  std::string name;       // last component
  // Enclosing class paths, innermost first (empty for free functions).
  std::vector<std::string> class_chain;
  bool is_ctor_dtor = false;
  bool has_body = false;
  size_t line = 0;
  size_t min_args = 0;
  size_t max_args = 0;
  std::vector<std::string> param_names;
  std::vector<LockExpr> requires_locks;
  std::vector<LockExpr> excludes_locks;  // EXCLUDES + ACQUIRE: both promise
                                         // "caller must not hold"
  std::vector<Acquisition> acqs;
  std::vector<CallSite> calls;
  std::set<std::string> local_mutexes;  // Mutex declared in the body
};

struct MutexMember {
  std::string file;
  size_t line = 0;
};

struct ClassInfo {
  std::map<std::string, MutexMember> mutex_members;
  std::vector<LockExpr> guarded_args;  // GUARDED_BY arguments seen in-class
};

struct ParseOutput {
  std::map<std::string, ClassInfo> classes;  // by full path
  std::vector<FunctionInfo> functions;
};

// ---- Token parser --------------------------------------------------------

bool IsAnnotationName(const std::string& s) {
  return s == "REQUIRES" || s == "REQUIRES_SHARED" || s == "EXCLUDES" ||
         s == "ACQUIRE" || s == "ACQUIRE_SHARED" || s == "RELEASE" ||
         s == "RELEASE_SHARED" || s == "TRY_ACQUIRE" || s == "GUARDED_BY" ||
         s == "PT_GUARDED_BY" || s == "ACQUIRED_BEFORE" ||
         s == "ACQUIRED_AFTER" || s == "ASSERT_CAPABILITY" ||
         s == "RETURN_CAPABILITY" || s == "NO_THREAD_SAFETY_ANALYSIS";
}

bool IsCallKeyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",     "for",    "while",   "switch",        "return",
      "sizeof", "alignof", "catch",  "throw",         "new",
      "delete", "assert", "decltype", "static_assert", "noexcept",
      "defined"};
  return kKeywords.count(s) > 0;
}

class FileParser {
 public:
  FileParser(std::string file, const std::vector<Token>& toks,
             ParseOutput* out)
      : file_(std::move(file)), toks_(toks), out_(out) {}

  void Parse() { ParseScopeBody(/*is_class=*/false, /*top_level=*/true); }

 private:
  const Token& Tok(size_t i) const {
    static const Token kEof{Token::Kind::kPunct, "", 0};
    return i < toks_.size() ? toks_[i] : kEof;
  }
  bool AtEnd() const { return i_ >= toks_.size(); }

  // Skips a balanced group starting at the opener toks_[i_] (one of ( [ {).
  // Leaves i_ just past the matching closer.
  void SkipBalanced(const char* open, const char* close) {
    int depth = 0;
    while (!AtEnd()) {
      if (Tok(i_).Is(open)) ++depth;
      if (Tok(i_).Is(close) && --depth == 0) {
        ++i_;
        return;
      }
      ++i_;
    }
  }

  // Skips <...> template arguments starting at a '<'. Treats << and >> as
  // two brackets each (good enough for declarations).
  void SkipAngles() {
    int depth = 0;
    while (!AtEnd()) {
      const std::string& t = Tok(i_).text;
      if (t == "<") depth += 1;
      if (t == "<<") depth += 2;
      if (t == ">") depth -= 1;
      if (t == ">>") depth -= 2;
      ++i_;
      if (depth <= 0) return;
    }
  }

  void SkipToSemicolon() {
    while (!AtEnd() && !Tok(i_).Is(";")) {
      if (Tok(i_).Is("{")) {
        SkipBalanced("{", "}");
        continue;
      }
      if (Tok(i_).Is("(")) {
        SkipBalanced("(", ")");
        continue;
      }
      ++i_;
    }
    if (!AtEnd()) ++i_;  // the ';'
  }

  std::string ScopePath() const {
    std::string path;
    for (const auto& [name, is_class] : scopes_) {
      if (name.empty()) continue;
      if (!path.empty()) path += "::";
      path += name;
    }
    return path;
  }

  std::vector<std::string> ClassChain() const {
    // Innermost class first; each entry is the class's full path.
    std::vector<std::string> chain;
    std::string path;
    std::vector<std::string> class_paths;
    for (const auto& [name, is_class] : scopes_) {
      if (name.empty()) continue;
      if (!path.empty()) path += "::";
      path += name;
      if (is_class) class_paths.push_back(path);
    }
    for (auto it = class_paths.rbegin(); it != class_paths.rend(); ++it) {
      chain.push_back(*it);
    }
    return chain;
  }

  void ParseScopeBody(bool is_class, bool top_level) {
    while (!AtEnd()) {
      const Token& t = Tok(i_);
      if (t.Is("}")) {
        if (!top_level) ++i_;
        return;
      }
      if (t.Is(";")) {
        ++i_;
        continue;
      }
      if (t.IsIdent() && (t.text == "public" || t.text == "private" ||
                          t.text == "protected") &&
          Tok(i_ + 1).Is(":")) {
        i_ += 2;
        continue;
      }
      if (t.Is("namespace")) {
        ParseNamespace();
        continue;
      }
      if ((t.Is("class") || t.Is("struct")) && !prev_was_enum_) {
        ParseClass();
        continue;
      }
      if (t.Is("enum")) {
        ++i_;
        if (Tok(i_).Is("class") || Tok(i_).Is("struct")) ++i_;
        SkipToSemicolon();
        continue;
      }
      if (t.Is("template")) {
        ++i_;
        if (Tok(i_).Is("<")) SkipAngles();
        continue;
      }
      if (t.Is("using") || t.Is("typedef") || t.Is("friend") ||
          t.Is("static_assert") || t.Is("extern")) {
        SkipToSemicolon();
        continue;
      }
      ParseMemberDecl(is_class);
    }
  }

  void ParseNamespace() {
    ++i_;  // namespace
    std::string name;
    while (Tok(i_).IsIdent()) {
      if (!name.empty()) name += "::";
      name += Tok(i_).text;
      ++i_;
      if (Tok(i_).Is("::")) ++i_;
    }
    if (Tok(i_).Is("=")) {  // namespace alias
      SkipToSemicolon();
      return;
    }
    if (!Tok(i_).Is("{")) {  // something unexpected; resync
      SkipToSemicolon();
      return;
    }
    ++i_;
    scopes_.push_back({name, false});
    ParseScopeBody(/*is_class=*/false, /*top_level=*/false);
    scopes_.pop_back();
  }

  void ParseClass() {
    ++i_;  // class/struct
    std::string name;
    while (!AtEnd()) {
      const Token& t = Tok(i_);
      if (t.Is("{") || t.Is(";") || t.Is(":")) break;
      if (t.IsIdent()) {
        name = t.text;
        ++i_;
        if (Tok(i_).Is("(")) SkipBalanced("(", ")");  // attribute macro
        if (Tok(i_).Is("<")) SkipAngles();            // specialization args
        continue;
      }
      ++i_;
    }
    if (Tok(i_).Is(";")) {  // forward declaration
      ++i_;
      return;
    }
    if (Tok(i_).Is(":")) {  // base-class list
      while (!AtEnd() && !Tok(i_).Is("{")) {
        if (Tok(i_).Is("<")) {
          SkipAngles();
          continue;
        }
        ++i_;
      }
    }
    if (!Tok(i_).Is("{")) return;
    ++i_;
    scopes_.push_back({name, true});
    out_->classes[ScopePath()];  // materialize even if empty
    ParseScopeBody(/*is_class=*/true, /*top_level=*/false);
    scopes_.pop_back();
    SkipToSemicolon();  // trailing `;` (tolerates `} name;`)
  }

  // Reads the (...) group starting at i_ (must be '(') into a LockExpr list
  // split on top-level commas. Leaves i_ past the ')'.
  std::vector<LockExpr> ParseExprArgs() {
    std::vector<LockExpr> args;
    LockExpr cur;
    size_t tokens_in_cur = 0;
    int depth = 0;
    cur.line = Tok(i_).line;
    while (!AtEnd()) {
      const Token& t = Tok(i_);
      if (t.Is("(")) {
        ++depth;
        ++i_;
        continue;
      }
      if (t.Is(")")) {
        if (--depth == 0) {
          ++i_;
          break;
        }
        ++i_;
        continue;
      }
      if (t.Is(",") && depth == 1) {
        cur.single_ident = tokens_in_cur == 1 && cur.idents.size() == 1;
        if (!cur.idents.empty()) args.push_back(cur);
        cur = LockExpr{};
        cur.line = t.line;
        tokens_in_cur = 0;
        ++i_;
        continue;
      }
      if (t.IsIdent()) cur.idents.push_back(t.text);
      if (t.Is("[")) cur.has_bracket = true;
      ++tokens_in_cur;
      ++i_;
    }
    cur.single_ident = tokens_in_cur == 1 && cur.idents.size() == 1;
    if (!cur.idents.empty()) args.push_back(cur);
    return args;
  }

  // Parses the parameter list starting at '('; fills arg counts and names.
  void ParseParams(FunctionInfo* fn) {
    int depth = 0;
    size_t params = 0;
    size_t defaults = 0;
    bool variadic = false;
    bool any_tokens = false;
    bool in_default = false;
    std::string last_ident;
    auto finish_param = [&] {
      if (!any_tokens) return;
      ++params;
      fn->param_names.push_back(last_ident);
      last_ident.clear();
      any_tokens = false;
      in_default = false;
    };
    while (!AtEnd()) {
      const Token& t = Tok(i_);
      if (t.Is("(")) {
        ++depth;
        ++i_;
        continue;
      }
      if (t.Is(")")) {
        if (--depth == 0) {
          ++i_;
          break;
        }
        ++i_;
        continue;
      }
      if (t.Is("<")) {
        SkipAngles();
        continue;
      }
      if (depth == 1 && t.Is(",")) {
        finish_param();
        ++i_;
        continue;
      }
      if (depth == 1 && t.Is("=") && !in_default) {
        in_default = true;
        ++defaults;
      }
      if (depth == 1 && t.Is("...")) variadic = true;
      if (depth == 1 && t.IsIdent() && !in_default) last_ident = t.text;
      any_tokens = true;
      ++i_;
    }
    finish_param();
    fn->max_args = variadic ? static_cast<size_t>(-1) : params;
    fn->min_args = params - defaults;
  }

  // A declaration at class or namespace scope: a member variable, a
  // function declaration, or a function definition (whose body we walk).
  void ParseMemberDecl(bool is_class) {
    prev_was_enum_ = false;
    FunctionInfo fn;
    bool cand = false;            // saw name(...)
    bool trailing = false;        // past the candidate's parameter list
    std::string cand_name;        // possibly qualified A::B::name
    const size_t decl_start = i_;

    while (!AtEnd()) {
      const Token& t = Tok(i_);
      if (t.Is(";")) {
        ++i_;
        break;
      }
      if (t.Is("}")) break;  // tolerate unbalanced input

      // Mutex member: `Mutex name;` (optionally dta::Mutex / mutable).
      if (is_class && t.Is("Mutex") && Tok(i_ + 1).IsIdent() &&
          Tok(i_ + 2).Is(";")) {
        out_->classes[ScopePath()].mutex_members[Tok(i_ + 1).text] =
            MutexMember{file_, Tok(i_ + 1).line};
        i_ += 3;
        return;
      }

      if (t.IsIdent() && IsAnnotationName(t.text) && Tok(i_ + 1).Is("(")) {
        const std::string ann = t.text;
        ++i_;
        std::vector<LockExpr> args = ParseExprArgs();
        if (ann == "GUARDED_BY" || ann == "PT_GUARDED_BY") {
          if (is_class) {
            ClassInfo& ci = out_->classes[ScopePath()];
            ci.guarded_args.insert(ci.guarded_args.end(), args.begin(),
                                   args.end());
          }
        } else if (ann == "REQUIRES" || ann == "REQUIRES_SHARED") {
          fn.requires_locks.insert(fn.requires_locks.end(), args.begin(),
                                   args.end());
        } else if (ann == "EXCLUDES" || ann == "ACQUIRE" ||
                   ann == "ACQUIRE_SHARED" || ann == "TRY_ACQUIRE") {
          fn.excludes_locks.insert(fn.excludes_locks.end(), args.begin(),
                                   args.end());
        }
        continue;
      }

      if (t.Is("{")) {
        // Function body, member brace-init, or initializer list.
        const std::string& prev = Tok(i_ - 1).text;
        const bool body_ok =
            cand && (prev == ")" || prev == "const" || prev == "noexcept" ||
                     prev == "override" || prev == "final" || trailing);
        if (body_ok) {
          FinalizeFunction(&fn, cand_name, /*has_body=*/true);
          return;
        }
        SkipBalanced("{", "}");
        continue;
      }

      if (t.Is("(")) {
        // Candidate function signature if directly preceded by a name.
        std::string name;
        size_t name_end = i_;
        if (Tok(i_ - 1).IsIdent() && !IsCallKeyword(Tok(i_ - 1).text)) {
          name = Tok(i_ - 1).text;
          name_end = i_ - 1;
        } else if (Tok(i_ - 1).kind == Token::Kind::kPunct &&
                   (Tok(i_ - 2).Is("operator") ||
                    (Tok(i_ - 2).kind == Token::Kind::kPunct &&
                     Tok(i_ - 3).Is("operator")))) {
          // operator< (  /  operator[] (
          size_t op = Tok(i_ - 2).Is("operator") ? i_ - 2 : i_ - 3;
          name = "operator";
          for (size_t k = op + 1; k < i_; ++k) name += Tok(k).text;
          name_end = op;
        }
        if (!name.empty() && !cand) {
          // Collect A:: qualifiers (and a dtor's ~) before the name.
          size_t k = name_end;
          if (Tok(k - 1).Is("~")) {
            name = "~" + name;
            --k;
          }
          while (Tok(k - 1).Is("::") && Tok(k - 2).IsIdent()) {
            name = Tok(k - 2).text + "::" + name;
            k -= 2;
          }
          cand = true;
          cand_name = name;
          ParseParams(&fn);
          // `operator()` has a second parens group holding the real params.
          if (fn.param_names.empty() && name == "operator" &&
              Tok(i_).Is("(")) {
            cand_name = "operator()";
            ParseParams(&fn);
          }
          continue;
        }
        SkipBalanced("(", ")");
        continue;
      }

      if (cand && t.Is(":")) {
        // Constructor initializer list: skip initializers, find the body.
        ++i_;
        while (!AtEnd()) {
          const Token& u = Tok(i_);
          if (u.Is("(")) {
            SkipBalanced("(", ")");
            continue;
          }
          if (u.Is("{")) {
            if (Tok(i_ - 1).IsIdent()) {  // brace-initializer b_{2}
              SkipBalanced("{", "}");
              continue;
            }
            FinalizeFunction(&fn, cand_name, /*has_body=*/true);
            return;
          }
          if (u.Is(";")) {  // not an init list after all
            ++i_;
            break;
          }
          ++i_;
        }
        break;
      }

      if (cand && (t.Is("const") || t.Is("noexcept") || t.Is("override") ||
                   t.Is("final"))) {
        trailing = true;
        ++i_;
        continue;
      }
      if (cand && t.Is("=")) {  // = default / = delete / = 0
        SkipToSemicolon();
        break;
      }
      if (cand && t.Is(",")) {  // `int x = f(1), y;` — not a function
        cand = false;
        cand_name.clear();
        fn = FunctionInfo{};
        ++i_;
        continue;
      }
      if (t.Is("<")) {
        SkipAngles();
        continue;
      }
      ++i_;
    }
    if (cand) FinalizeFunction(&fn, cand_name, /*has_body=*/false);
    (void)decl_start;
  }

  void FinalizeFunction(FunctionInfo* fn, const std::string& cand_name,
                        bool has_body) {
    fn->file = file_;
    fn->has_body = has_body;
    fn->line = Tok(i_).line;

    // Split a qualified candidate (A::B::name) into class path + name.
    std::string name = cand_name;
    std::string qual;
    size_t pos;
    while ((pos = name.find("::")) != std::string::npos) {
      if (!qual.empty()) qual += "::";
      qual += name.substr(0, pos);
      name = name.substr(pos + 2);
    }
    fn->name = name;
    const std::string scope = ScopePath();
    fn->class_chain = ClassChain();
    if (!qual.empty()) {
      // Out-of-class definition: the qualifier names the class (resolved
      // later against the registry; store the full path now).
      std::string cls = scope.empty() ? qual : scope + "::" + qual;
      fn->class_chain.insert(fn->class_chain.begin(), cls);
      fn->qualified = cls + "::" + name;
    } else {
      fn->qualified = scope.empty() ? name : scope + "::" + name;
    }
    const std::string& inner =
        fn->class_chain.empty() ? std::string() : fn->class_chain.front();
    const std::string cls_last = inner.empty()
                                     ? std::string()
                                     : inner.substr(inner.rfind("::") ==
                                                            std::string::npos
                                                        ? 0
                                                        : inner.rfind("::") +
                                                              2);
    fn->is_ctor_dtor = !cls_last.empty() &&
                       (name == cls_last || name == "~" + cls_last);

    if (has_body) ParseFunctionBody(fn);
    out_->functions.push_back(std::move(*fn));
  }

  // Walks a function body from its '{': tracks brace depth, the stack of
  // scoped MutexLock acquisitions, local Mutex declarations, and calls.
  void ParseFunctionBody(FunctionInfo* fn) {
    ++i_;  // '{'
    int depth = 1;
    std::vector<std::pair<size_t, int>> lock_stack;  // (acq index, depth)

    auto held_now = [&] {
      std::vector<size_t> held;
      for (const auto& [idx, d] : lock_stack) held.push_back(idx);
      return held;
    };

    while (!AtEnd() && depth > 0) {
      const Token& t = Tok(i_);
      if (t.Is("{")) {
        ++depth;
        ++i_;
        continue;
      }
      if (t.Is("}")) {
        while (!lock_stack.empty() && lock_stack.back().second == depth) {
          lock_stack.pop_back();
        }
        --depth;
        ++i_;
        continue;
      }
      if (t.Is("Mutex") && Tok(i_ + 1).IsIdent() &&
          (Tok(i_ + 2).Is(";") || Tok(i_ + 2).Is("{"))) {
        fn->local_mutexes.insert(Tok(i_ + 1).text);
        i_ += 2;
        continue;
      }
      if (t.Is("MutexLock") && Tok(i_ + 1).IsIdent() && Tok(i_ + 2).Is("(")) {
        const size_t line = t.line;
        i_ += 2;
        std::vector<LockExpr> args = ParseExprArgs();
        if (args.size() == 1) {
          Acquisition acq;
          acq.expr = args[0];
          acq.line = line;
          acq.held = held_now();
          lock_stack.push_back({fn->acqs.size(), depth});
          fn->acqs.push_back(std::move(acq));
        }
        continue;
      }
      if (t.IsIdent() && Tok(i_ + 1).Is("(") && !IsCallKeyword(t.text) &&
          !IsAnnotationName(t.text) && t.text != "MutexLock" &&
          t.text != "Mutex" && t.text != "CondVar") {
        CallSite call;
        call.name = t.text;
        call.line = t.line;
        call.held = held_now();
        if (Tok(i_ - 1).Is("::") && Tok(i_ - 2).IsIdent()) {
          call.qualifier = Tok(i_ - 2).text;
        } else if (Tok(i_ - 1).Is(".") || Tok(i_ - 1).Is("->")) {
          call.has_receiver = true;
        }
        // Count top-level commas by lookahead; do not consume — nested
        // calls in the argument list must be scanned too.
        int pd = 0;
        int bd = 0;
        bool any = false;
        size_t commas = 0;
        for (size_t k = i_ + 1; k < toks_.size(); ++k) {
          const std::string& u = Tok(k).text;
          if (u == "(") ++pd;
          if (u == ")" && --pd == 0) break;
          if (u == "{") ++bd;
          if (u == "}") --bd;
          if (pd == 1 && bd == 0 && u == ",") ++commas;
          if (u != "(" && u != ")") any = true;
        }
        call.argc = any ? commas + 1 : 0;
        fn->calls.push_back(std::move(call));
        ++i_;
        continue;
      }
      ++i_;
    }
  }

  const std::string file_;
  const std::vector<Token>& toks_;
  ParseOutput* out_;
  size_t i_ = 0;
  std::vector<std::pair<std::string, bool>> scopes_;  // (name, is_class)
  bool prev_was_enum_ = false;
};

// ---- Lock identity normalization -----------------------------------------

// Resolves lock expressions to stable class-qualified identities: the
// member name (last identifier) is looked up first in the function's
// enclosing classes and their nested classes, then globally if unique.
// Locals become function-qualified; anything unresolvable becomes ::name,
// which keeps same-named unresolvable locks distinct from every class
// member.
class LockResolver {
 public:
  explicit LockResolver(const ParseOutput& model) : model_(model) {
    for (const auto& [path, info] : model.classes) {
      for (const auto& [member, site] : info.mutex_members) {
        owners_[member].push_back(path);
      }
    }
  }

  std::string Resolve(const LockExpr& expr, const FunctionInfo& fn) const {
    if (expr.idents.empty()) return "::?";
    const std::string& last = expr.idents.back();
    if (expr.single_ident && fn.local_mutexes.count(last) > 0) {
      return fn.qualified + "::" + last;
    }
    for (const std::string& cls : fn.class_chain) {
      std::vector<std::string> hits;
      auto it = owners_.find(last);
      if (it != owners_.end()) {
        for (const std::string& owner : it->second) {
          if (owner == cls ||
              (owner.size() > cls.size() + 2 &&
               owner.compare(0, cls.size(), cls) == 0 &&
               owner.compare(cls.size(), 2, "::") == 0)) {
            hits.push_back(owner);
          }
        }
      }
      if (hits.size() == 1) return hits[0] + "::" + last;
      if (hits.size() > 1) return "::" + last;
    }
    auto it = owners_.find(last);
    if (it != owners_.end() && it->second.size() == 1) {
      return it->second[0] + "::" + last;
    }
    return "::" + last;
  }

  // True if the acquisition could carry an EXCLUDES annotation: a bare
  // member of an enclosing class, or a member reached through a parameter
  // (EXCLUDES(param.mu)). Locals and container-indexed paths cannot be
  // named in an annotation.
  bool Annotatable(const LockExpr& expr, const FunctionInfo& fn) const {
    if (expr.idents.empty() || expr.has_bracket) return false;
    const std::string& root = expr.idents.front();
    if (expr.single_ident) {
      if (fn.local_mutexes.count(root) > 0) return false;
      for (const std::string& cls : fn.class_chain) {
        auto it = model_.classes.find(cls);
        if (it != model_.classes.end() &&
            it->second.mutex_members.count(root) > 0) {
          return true;
        }
      }
      return false;
    }
    return std::find(fn.param_names.begin(), fn.param_names.end(), root) !=
           fn.param_names.end();
  }

 private:
  const ParseOutput& model_;
  std::map<std::string, std::vector<std::string>> owners_;
};

// ---- Edges, cycles, manifest ---------------------------------------------

struct EdgeSite {
  std::string file;
  size_t line = 0;
};

using EdgeMap = std::map<std::pair<std::string, std::string>,
                         std::vector<EdgeSite>>;

// Tarjan strongly-connected components over the lock graph.
class SccFinder {
 public:
  explicit SccFinder(const EdgeMap& edges) {
    for (const auto& [edge, sites] : edges) {
      adj_[edge.first].push_back(edge.second);
      adj_[edge.second];  // ensure node exists
    }
    for (const auto& [node, tos] : adj_) {
      if (index_.count(node) == 0) Strongconnect(node);
    }
  }

  // Component id per node; nodes in a multi-node SCC (or with a self-loop)
  // are "cyclic".
  const std::map<std::string, int>& component() const { return component_; }

 private:
  void Strongconnect(const std::string& v0) {
    // Iterative Tarjan (explicit stack) — lock graphs are tiny, but fixture
    // inputs are arbitrary.
    struct Frame {
      std::string v;
      size_t next = 0;
    };
    std::vector<Frame> call_stack{{v0}};
    while (!call_stack.empty()) {
      Frame& f = call_stack.back();
      const std::string v = f.v;
      if (f.next == 0) {
        index_[v] = lowlink_[v] = counter_++;
        stack_.push_back(v);
        on_stack_.insert(v);
      }
      bool recursed = false;
      auto& tos = adj_[v];
      while (f.next < tos.size()) {
        const std::string& w = tos[f.next++];
        if (index_.count(w) == 0) {
          call_stack.push_back({w});
          recursed = true;
          break;
        }
        if (on_stack_.count(w) > 0) {
          lowlink_[v] = std::min(lowlink_[v], index_[w]);
        }
      }
      if (recursed) continue;
      if (lowlink_[v] == index_[v]) {
        int comp = next_component_++;
        while (true) {
          const std::string w = stack_.back();
          stack_.pop_back();
          on_stack_.erase(w);
          component_[w] = comp;
          if (w == v) break;
        }
      }
      call_stack.pop_back();
      if (!call_stack.empty()) {
        Frame& parent = call_stack.back();
        lowlink_[parent.v] = std::min(lowlink_[parent.v], lowlink_[v]);
      }
    }
  }

  std::map<std::string, std::vector<std::string>> adj_;
  std::map<std::string, int> index_;
  std::map<std::string, int> lowlink_;
  std::map<std::string, int> component_;
  std::vector<std::string> stack_;
  std::set<std::string> on_stack_;
  int counter_ = 0;
  int next_component_ = 0;
};

struct ManifestEntry {
  std::string from;
  std::string to;
  size_t line = 0;  // 1-based line in the manifest file
};

bool ReadManifest(const fs::path& path, std::vector<ManifestEntry>* out,
                  std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read manifest " + path.string();
    return false;
  }
  std::string text;
  size_t lineno = 0;
  while (std::getline(in, text)) {
    ++lineno;
    size_t b = text.find_first_not_of(" \t");
    if (b == std::string::npos || text[b] == '#') continue;
    const size_t arrow = text.find(" -> ");
    if (arrow == std::string::npos) {
      *error = path.string() + ":" + std::to_string(lineno) +
               ": malformed manifest line (want 'A -> B')";
      return false;
    }
    ManifestEntry e;
    e.from = text.substr(b, arrow - b);
    e.to = text.substr(arrow + 4);
    while (!e.to.empty() && (e.to.back() == ' ' || e.to.back() == '\t')) {
      e.to.pop_back();
    }
    e.line = lineno;
    out->push_back(std::move(e));
  }
  return true;
}

// ---- Determinism flow (unordered-flow) -----------------------------------

bool IsUnorderedType(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

bool IsEmissionCall(const std::string& name) {
  static const std::vector<std::string> kStems = {
      "Emit", "Write", "Export", "Serialize", "Print", "Output"};
  for (const std::string& stem : kStems) {
    if (name.find(stem) != std::string::npos) return true;
  }
  return false;
}

bool IsAccumulationCall(const std::string& name) {
  return name == "push_back" || name == "emplace_back" || name == "append" ||
         name == "emplace";
}

// Emits unordered-flow findings for one file's token stream.
void AnalyzeUnorderedFlow(
    const std::string& rel_path, const std::vector<Token>& toks,
    const std::function<void(const std::string&, size_t, const std::string&,
                             const std::string&)>& emit) {
  // Variable (and member) names declared as unordered containers anywhere
  // in the file.
  std::set<std::string> unordered_vars;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!toks[i].IsIdent() || !IsUnorderedType(toks[i].text)) continue;
    size_t j = i + 1;
    if (toks[j].Is("<")) {
      int depth = 0;
      while (j < toks.size()) {
        const std::string& t = toks[j].text;
        if (t == "<") depth += 1;
        if (t == "<<") depth += 2;
        if (t == ">") depth -= 1;
        if (t == ">>") depth -= 2;
        ++j;
        if (depth <= 0) break;
      }
    }
    while (j < toks.size() &&
           (toks[j].Is("&") || toks[j].Is("*") || toks[j].Is("const"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].IsIdent() &&
        !(j + 1 < toks.size() && toks[j + 1].Is("("))) {
      unordered_vars.insert(toks[j].text);
    }
  }

  for (size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].Is("for") || i + 1 >= toks.size() || !toks[i + 1].Is("(")) {
      continue;
    }
    // Find the range-for ':' and the closing ')'.
    int pd = 0;
    int bd = 0;  // [] depth, for structured bindings
    size_t colon = 0;
    size_t close = 0;
    for (size_t k = i + 1; k < toks.size(); ++k) {
      const std::string& t = toks[k].text;
      if (t == "(") ++pd;
      if (t == ")") {
        if (--pd == 0) {
          close = k;
          break;
        }
      }
      if (t == "[") ++bd;
      if (t == "]") --bd;
      if (t == ":" && pd == 1 && bd == 0 && colon == 0) colon = k;
    }
    if (colon == 0 || close == 0) continue;

    // Is the range expression an unordered container?
    std::string container;
    for (size_t k = colon + 1; k < close; ++k) {
      if (toks[k].IsIdent() && (unordered_vars.count(toks[k].text) > 0 ||
                                IsUnorderedType(toks[k].text))) {
        container = toks[k].text;
      }
    }
    if (container.empty()) continue;

    // Body: a brace block or a single statement.
    size_t body_begin = close + 1;
    size_t body_end = body_begin;  // exclusive
    if (body_begin < toks.size() && toks[body_begin].Is("{")) {
      int depth = 0;
      for (size_t k = body_begin; k < toks.size(); ++k) {
        if (toks[k].Is("{")) ++depth;
        if (toks[k].Is("}") && --depth == 0) {
          body_end = k + 1;
          break;
        }
      }
    } else {
      for (size_t k = body_begin; k < toks.size(); ++k) {
        if (toks[k].Is(";")) {
          body_end = k + 1;
          break;
        }
      }
    }

    bool emission = false;
    bool accumulation = false;
    for (size_t k = body_begin; k < body_end; ++k) {
      const Token& t = toks[k];
      if (t.Is("<<")) emission = true;
      if (t.Is("+=")) accumulation = true;
      if (t.IsIdent() && k + 1 < toks.size() && toks[k + 1].Is("(")) {
        if (IsEmissionCall(t.text)) emission = true;
        if (IsAccumulationCall(t.text)) accumulation = true;
      }
    }
    if (!emission && !accumulation) continue;

    if (!emission) {
      // Accumulation is fine when the result is sorted before it can
      // matter: look for a sort in the rest of the enclosing block.
      int depth = 0;
      bool sorted_after = false;
      for (size_t k = body_end; k < toks.size(); ++k) {
        if (toks[k].Is("{")) ++depth;
        if (toks[k].Is("}")) {
          if (--depth < 0) break;  // enclosing block closed
        }
        if (toks[k].IsIdent() &&
            (toks[k].text == "sort" || toks[k].text == "stable_sort") &&
            k + 1 < toks.size() && toks[k + 1].Is("(")) {
          sorted_after = true;
          break;
        }
      }
      if (sorted_after) continue;
    }

    emit(rel_path, toks[i].line, "unordered-flow",
         std::string("iteration over unordered container '") + container +
             (emission
                  ? "' flows into emission; hash order leaks into output "
                    "bytes — sort into a vector first"
                  : "' feeds order-sensitive accumulation with no "
                    "intervening sort — sort the results before use") +
             " (suppress with 'lint: unordered-flow')");
  }
}

// ---- Driver --------------------------------------------------------------

int Usage() {
  std::cerr << "usage: dta_analyze [--root=DIR] [--exclude=p1,p2]\n"
               "                   [--disable=r1,r2] [--audit]\n"
               "                   [--manifest=PATH | --no-manifest]\n"
               "                   [--write-manifest] [--dot=FILE]\n"
               "                   [--check-expectations] PATH...\n"
               "rules: lock-cycle lock-manifest unordered-flow "
               "audit-guarded audit-excludes\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::set<std::string> disabled;
  std::vector<std::string> excluded;
  std::vector<std::string> inputs;
  bool check_expectations = false;
  bool audit = false;
  bool no_manifest = false;
  bool write_manifest = false;
  std::string manifest_override;
  std::string dot_file;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg.rfind("--exclude=", 0) == 0) {
      std::string list = arg.substr(10);
      size_t start = 0;
      while (start <= list.size()) {
        const size_t comma = list.find(',', start);
        const size_t end = comma == std::string::npos ? list.size() : comma;
        if (end > start) excluded.push_back(list.substr(start, end - start));
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (arg.rfind("--disable=", 0) == 0) {
      for (const std::string& r : dta::lex::ParseRuleList(arg.substr(10))) {
        disabled.insert(r);
      }
    } else if (arg.rfind("--manifest=", 0) == 0) {
      manifest_override = arg.substr(11);
    } else if (arg.rfind("--dot=", 0) == 0) {
      dot_file = arg.substr(6);
    } else if (arg == "--no-manifest") {
      no_manifest = true;
    } else if (arg == "--write-manifest") {
      write_manifest = true;
    } else if (arg == "--audit") {
      audit = true;
    } else if (arg == "--check-expectations") {
      check_expectations = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "dta_analyze: unknown flag '" << arg << "'\n";
      return Usage();
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) return Usage();

  std::set<fs::path> files;
  std::string error;
  if (!dta::lex::CollectFiles(root, inputs, excluded, &files, &error)) {
    std::cerr << "dta_analyze: " << error << "\n";
    return 2;
  }

  // ---- Parse every file into one model -----------------------------------
  ParseOutput model;
  std::map<std::string, std::vector<SourceLine>> lines_by_file;
  std::map<std::string, std::vector<Token>> tokens_by_file;
  for (const fs::path& file : files) {
    // The lock primitive layer implements MutexLock/CondVar in terms of raw
    // std primitives; its internals are below the level this analysis
    // models.
    if (file.filename() == "mutex.h") continue;
    std::vector<std::string> raw;
    if (!dta::lex::ReadLines(file, &raw)) {
      std::cerr << "dta_analyze: cannot read " << file << "\n";
      return 2;
    }
    const std::string rel = dta::lex::RelPath(file, root);
    lines_by_file[rel] = dta::lex::PreprocessSource(raw);
    tokens_by_file[rel] = dta::lex::Tokenize(lines_by_file[rel]);
    FileParser(rel, tokens_by_file[rel], &model).Parse();
  }

  std::vector<Finding> findings;
  std::vector<Finding> expectations;
  auto emit = [&](const std::string& file, size_t line0,
                  const std::string& rule, const std::string& message) {
    if (disabled.count(rule) > 0) return;
    auto it = lines_by_file.find(file);
    if (it != lines_by_file.end()) {
      const std::vector<SourceLine>& lines = it->second;
      if (line0 < lines.size() && lines[line0].suppressed.count(rule) > 0) {
        return;
      }
      if (line0 > 0 && line0 - 1 < lines.size() &&
          lines[line0 - 1].suppressed.count(rule) > 0) {
        return;
      }
    }
    findings.push_back(Finding{file, line0 + 1, rule, message});
  };
  if (check_expectations) {
    for (const auto& [file, lines] : lines_by_file) {
      for (size_t i = 0; i < lines.size(); ++i) {
        for (const std::string& rule : lines[i].expected) {
          expectations.push_back(Finding{file, i + 1, rule, ""});
        }
      }
    }
  }

  // ---- Resolve locks, merge annotations, resolve calls -------------------
  LockResolver resolver(model);

  // Annotation sets are merged across declaration and definition records of
  // the same function (header decl carries the contract, .cc def the body).
  auto merge_key = [](const FunctionInfo& f) {
    return f.qualified + "/" +
           (f.max_args == static_cast<size_t>(-1)
                ? std::string("v")
                : std::to_string(f.max_args));
  };
  std::map<std::string, std::set<std::string>> merged_excludes;
  std::map<std::string, std::set<std::string>> merged_requires;
  for (const FunctionInfo& f : model.functions) {
    for (const LockExpr& e : f.excludes_locks) {
      merged_excludes[merge_key(f)].insert(resolver.Resolve(e, f));
    }
    for (const LockExpr& e : f.requires_locks) {
      merged_requires[merge_key(f)].insert(resolver.Resolve(e, f));
    }
  }

  // Call resolution index: name -> candidate function indices (bodies only;
  // a declaration's acquisition set is empty by construction).
  std::map<std::string, std::vector<size_t>> by_name;
  for (size_t fi = 0; fi < model.functions.size(); ++fi) {
    if (model.functions[fi].has_body) {
      by_name[model.functions[fi].name].push_back(fi);
    }
  }
  auto resolve_call = [&](const CallSite& call,
                          const FunctionInfo& caller) -> int {
    auto it = by_name.find(call.name);
    if (it == by_name.end()) return -1;
    std::vector<size_t> cands;
    for (size_t fi : it->second) {
      const FunctionInfo& f = model.functions[fi];
      if (call.argc < f.min_args || call.argc > f.max_args) continue;
      if (!call.qualifier.empty()) {
        // X::name — the qualifier must be a suffix component of the class.
        bool match = false;
        for (const std::string& cls : f.class_chain) {
          if (cls == call.qualifier ||
              (cls.size() > call.qualifier.size() + 2 &&
               cls.compare(cls.size() - call.qualifier.size(),
                           call.qualifier.size(), call.qualifier) == 0 &&
               cls[cls.size() - call.qualifier.size() - 1] == ':')) {
            match = true;
            break;
          }
        }
        if (!match) continue;
      }
      cands.push_back(fi);
    }
    if (cands.size() == 1) return static_cast<int>(cands[0]);
    if (cands.size() > 1 && !caller.class_chain.empty()) {
      // Prefer a same-class method for unqualified calls.
      std::vector<size_t> same;
      for (size_t fi : cands) {
        const FunctionInfo& f = model.functions[fi];
        if (!f.class_chain.empty() &&
            f.class_chain.front() == caller.class_chain.front()) {
          same.push_back(fi);
        }
      }
      if (same.size() == 1) return static_cast<int>(same[0]);
    }
    return -1;  // ambiguous or unknown: no lock edges from this call
  };

  // Transitive acquisition sets: fixpoint over the call graph.
  std::vector<std::set<std::string>> acq_sets(model.functions.size());
  std::vector<std::vector<int>> resolved_calls(model.functions.size());
  for (size_t fi = 0; fi < model.functions.size(); ++fi) {
    const FunctionInfo& f = model.functions[fi];
    for (const Acquisition& a : f.acqs) {
      acq_sets[fi].insert(resolver.Resolve(a.expr, f));
    }
    for (const CallSite& c : f.calls) {
      resolved_calls[fi].push_back(resolve_call(c, f));
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t fi = 0; fi < model.functions.size(); ++fi) {
      for (int callee : resolved_calls[fi]) {
        if (callee < 0) continue;
        for (const std::string& lock : acq_sets[callee]) {
          if (acq_sets[fi].insert(lock).second) changed = true;
        }
      }
    }
  }

  // ---- Lock-order edges ---------------------------------------------------
  EdgeMap edges;
  auto add_edge = [&edges](const std::string& from, const std::string& to,
                           const std::string& file, size_t line) {
    if (from == to) return;  // same identity: re-acquisition is a clang
                             // -Wthread-safety diagnosis, not an order edge
    edges[{from, to}].push_back(EdgeSite{file, line});
  };
  for (size_t fi = 0; fi < model.functions.size(); ++fi) {
    const FunctionInfo& f = model.functions[fi];
    if (!f.has_body) continue;
    // REQUIRES locks are held for the whole body.
    std::vector<std::string> base_held;
    for (const LockExpr& e : f.requires_locks) {
      base_held.push_back(resolver.Resolve(e, f));
    }
    auto held_ids = [&](const std::vector<size_t>& held) {
      std::vector<std::string> ids = base_held;
      for (size_t hi : held) {
        ids.push_back(resolver.Resolve(f.acqs[hi].expr, f));
      }
      return ids;
    };
    for (const Acquisition& a : f.acqs) {
      const std::string to = resolver.Resolve(a.expr, f);
      for (const std::string& h : held_ids(a.held)) {
        add_edge(h, to, f.file, a.line);
      }
    }
    for (size_t ci = 0; ci < f.calls.size(); ++ci) {
      const int callee = resolved_calls[fi][ci];
      if (callee < 0) continue;
      const CallSite& c = f.calls[ci];
      const std::vector<std::string> held = held_ids(c.held);
      if (held.empty()) continue;
      for (const std::string& to : acq_sets[callee]) {
        for (const std::string& h : held) {
          add_edge(h, to, f.file, c.line);
        }
      }
    }
  }
  for (auto& [edge, sites] : edges) {
    std::sort(sites.begin(), sites.end(),
              [](const EdgeSite& a, const EdgeSite& b) {
                return std::tie(a.file, a.line) < std::tie(b.file, b.line);
              });
  }

  // ---- DOT / manifest outputs --------------------------------------------
  if (!dot_file.empty()) {
    std::ofstream out(dot_file);
    if (!out) {
      std::cerr << "dta_analyze: cannot write " << dot_file << "\n";
      return 2;
    }
    out << "digraph lock_order {\n";
    std::set<std::string> nodes;
    for (const auto& [edge, sites] : edges) {
      nodes.insert(edge.first);
      nodes.insert(edge.second);
    }
    for (const std::string& n : nodes) {
      out << "  \"" << n << "\";\n";
    }
    for (const auto& [edge, sites] : edges) {
      out << "  \"" << edge.first << "\" -> \"" << edge.second
          << "\" [label=\"" << sites.front().file << ":"
          << sites.front().line + 1 << "\"];\n";
    }
    out << "}\n";
  }

  const fs::path manifest_path =
      manifest_override.empty()
          ? root / "tools" / "lock_order.manifest"
          : (fs::path(manifest_override).is_absolute()
                 ? fs::path(manifest_override)
                 : root / manifest_override);
  if (write_manifest) {
    std::ofstream out(manifest_path);
    if (!out) {
      std::cerr << "dta_analyze: cannot write " << manifest_path << "\n";
      return 2;
    }
    out << "# Reviewed lock-order edges (A -> B: B is acquired while A is\n"
           "# held somewhere in the tree). dta_analyze fails on any edge\n"
           "# not listed here and on any entry no longer backed by code;\n"
           "# to bless a change, regenerate with\n"
           "#   dta_analyze --root=. --write-manifest <same inputs>\n"
           "# and review the diff of this file.\n";
    for (const auto& [edge, sites] : edges) {
      out << edge.first << " -> " << edge.second << "\n";
    }
    std::cout << "dta_analyze: wrote " << edges.size() << " edge(s) to "
              << manifest_path.string() << "\n";
    return 0;
  }

  // ---- lock-cycle ---------------------------------------------------------
  {
    SccFinder scc(edges);
    const auto& comp = scc.component();
    // Count nodes per component to identify multi-node SCCs.
    std::map<int, std::vector<std::string>> members;
    for (const auto& [node, c] : comp) members[c].push_back(node);
    for (const auto& [edge, sites] : edges) {
      const auto cf = comp.find(edge.first);
      const auto ct = comp.find(edge.second);
      if (cf == comp.end() || ct == comp.end()) continue;
      if (cf->second != ct->second) continue;
      if (members[cf->second].size() < 2) continue;
      std::string cycle;
      for (const std::string& m : members[cf->second]) {
        if (!cycle.empty()) cycle += ", ";
        cycle += m;
      }
      emit(sites.front().file, sites.front().line, "lock-cycle",
           "lock-order cycle: '" + edge.first + "' -> '" + edge.second +
               "' closes a cycle among {" + cycle +
               "}; two threads taking these locks in opposite orders "
               "deadlock");
    }
  }

  // ---- lock-manifest ------------------------------------------------------
  if (!no_manifest) {
    std::vector<ManifestEntry> manifest;
    std::string manifest_error;
    if (!ReadManifest(manifest_path, &manifest, &manifest_error)) {
      std::cerr << "dta_analyze: " << manifest_error << "\n";
      return 2;
    }
    std::set<std::pair<std::string, std::string>> blessed;
    for (const ManifestEntry& e : manifest) blessed.insert({e.from, e.to});
    for (const auto& [edge, sites] : edges) {
      if (blessed.count(edge) > 0) continue;
      emit(sites.front().file, sites.front().line, "lock-manifest",
           "unreviewed lock-order edge '" + edge.first + "' -> '" +
               edge.second + "'; if intended, bless it: dta_analyze "
               "--write-manifest, then review the manifest diff");
    }
    const std::string manifest_rel =
        dta::lex::RelPath(manifest_path, root);
    for (const ManifestEntry& e : manifest) {
      if (edges.count({e.from, e.to}) > 0) continue;
      if (disabled.count("lock-manifest") > 0) continue;
      findings.push_back(
          Finding{manifest_rel, e.line, "lock-manifest",
                  "stale manifest edge '" + e.from + "' -> '" + e.to +
                      "': no code path acquires these locks in this order "
                      "any more — delete the entry"});
    }
  }

  // ---- unordered-flow -----------------------------------------------------
  for (const auto& [file, toks] : tokens_by_file) {
    AnalyzeUnorderedFlow(file, toks, emit);
  }

  // ---- audit rules --------------------------------------------------------
  if (audit) {
    for (const auto& [cls, info] : model.classes) {
      for (const auto& [member, site] : info.mutex_members) {
        bool guarded = false;
        for (const LockExpr& g : info.guarded_args) {
          if (!g.idents.empty() && g.idents.back() == member) guarded = true;
        }
        if (!guarded) {
          emit(site.file, site.line, "audit-guarded",
               "mutex member '" + cls + "::" + member +
                   "' guards no member (no GUARDED_BY(" + member +
                   ") in the class); annotate what it protects or remove "
                   "it");
        }
      }
    }
    for (const FunctionInfo& f : model.functions) {
      if (!f.has_body || f.is_ctor_dtor) continue;
      const std::set<std::string>& declared = merged_excludes[merge_key(f)];
      for (const Acquisition& a : f.acqs) {
        if (!resolver.Annotatable(a.expr, f)) continue;
        const std::string id = resolver.Resolve(a.expr, f);
        if (declared.count(id) > 0) continue;
        emit(f.file, a.line, "audit-excludes",
             "'" + f.qualified + "' acquires '" + id +
                 "' but declares no EXCLUDES for it; callers cannot see "
                 "the no-deadlock contract");
      }
    }
  }

  // ---- Report -------------------------------------------------------------
  if (check_expectations) {
    const size_t mismatches =
        dta::lex::DiffExpectations(&findings, &expectations, std::cout);
    if (mismatches > 0) return 1;
    std::cout << "dta_analyze: expectations match (" << expectations.size()
              << " findings across " << lines_by_file.size() << " files)\n";
    return 0;
  }
  std::sort(findings.begin(), findings.end());
  for (const Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  if (!findings.empty()) {
    std::cout << "dta_analyze: " << findings.size() << " finding(s), "
              << edges.size() << " lock-order edge(s) across "
              << lines_by_file.size() << " file(s)\n";
    return 1;
  }
  std::cout << "dta_analyze: clean (" << edges.size()
            << " lock-order edge(s), " << model.functions.size()
            << " functions across " << lines_by_file.size() << " files)\n";
  return 0;
}
