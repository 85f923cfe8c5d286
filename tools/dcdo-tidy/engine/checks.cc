#include "engine/checks.h"

#include <algorithm>
#include <array>
#include <cctype>

namespace dcdo_tidy {

namespace {

constexpr const char kSelfCapture[] = "dcdo-shared-function-self-capture";
constexpr const char kMutableConst[] = "dcdo-mutable-nonatomic-in-const";
constexpr const char kUnorderedSched[] = "dcdo-unordered-iteration-schedules";
constexpr const char kWallclock[] = "dcdo-wallclock-in-sim";
constexpr const char kStatusDiscard[] = "dcdo-status-discard";
constexpr const char kCrossLocality[] = "dcdo-cross-locality-schedule";
constexpr const char kContinuation[] = "dcdo-continuation-chain";

void Report(const SourceFile& file, std::size_t offset, const char* check,
            std::string message, std::vector<Finding>* findings) {
  std::size_t line = file.LineOf(offset);
  if (file.IsSuppressed(line, check)) return;
  findings->push_back(Finding{file.path(), line, file.ColOf(offset), check,
                              std::move(message)});
}

std::string Snippet(std::string_view code, Piece p) {
  std::string out;
  for (std::size_t i = p.begin; i < p.end && i < code.size(); ++i) {
    char c = code[i];
    out.push_back(std::isspace(static_cast<unsigned char>(c)) ? ' ' : c);
  }
  return out;
}

}  // namespace

const std::vector<std::string>& AllCheckNames() {
  static const std::vector<std::string> kNames = {
      kSelfCapture, kMutableConst, kUnorderedSched, kWallclock,
      kStatusDiscard, kCrossLocality, kContinuation};
  return kNames;
}

// ---------------------------------------------------------------------------
// dcdo-shared-function-self-capture
//
// The historical bug (fixed in the PR 3 review pass, and chased out of the
// coordinator again in PR 5): a continuation loop written as
//
//   auto next = std::make_shared<std::function<void()>>();
//   *next = [next, ...] { ... (*next)(); ... };
//
// The closure stored inside *next owns a shared_ptr to itself, so the
// refcount can never reach zero: the whole capture set (often including the
// caller's `done` callback) leaks after every run. The accepted fixes — and
// what this check must stay quiet on — are (a) the weak self-capture form
//   *next = [weak = std::weak_ptr<...>(next), ...] { ... }
// and (b) `enable_shared_from_this` driver structs whose methods capture
// `self = shared_from_this()` into *pending continuations* (strong ref rides
// the in-flight operation, not the stored closure).
// ---------------------------------------------------------------------------
void CheckSharedFunctionSelfCapture(const SourceFile& file,
                                    std::vector<Finding>* findings) {
  std::string_view code = file.code();

  // 1. Collect names of shared-pointer-to-callable variables.
  struct SharedFn {
    std::string name;
    std::size_t decl_offset;
  };
  std::vector<SharedFn> vars;

  auto type_is_callable = [&](std::size_t lt, std::size_t gt) {
    std::string_view inner = code.substr(lt, gt - lt);
    return inner.find("function") != std::string_view::npos ||
           inner.find("MoveFunction") != std::string_view::npos;
  };

  // Form A: `NAME = std::make_shared<std::function<...>>(...)`.
  for (std::size_t pos = FindIdent(code, "make_shared");
       pos != std::string_view::npos;
       pos = FindIdent(code, "make_shared", pos + 1)) {
    std::size_t lt = pos + std::string_view("make_shared").size();
    if (lt >= code.size() || code[lt] != '<') continue;
    std::size_t gt = MatchForward(code, lt);
    if (gt == std::string_view::npos || !type_is_callable(lt + 1, gt)) continue;
    // Walk back over "std::" and '=' to the variable name.
    std::size_t back = pos;
    while (back > 0 && (code[back - 1] == ':' || IsIdentChar(code[back - 1]))) {
      --back;  // skip std:: qualification
    }
    std::size_t eq = SkipWsBack(code, back == 0 ? 0 : back - 1);
    if (eq == std::string_view::npos || code[eq] != '=') continue;
    std::size_t name_end = SkipWsBack(code, eq == 0 ? 0 : eq - 1);
    if (name_end == std::string_view::npos || !IsIdentChar(code[name_end])) {
      continue;
    }
    std::size_t name_begin = name_end;
    while (name_begin > 0 && IsIdentChar(code[name_begin - 1])) --name_begin;
    vars.push_back(SharedFn{
        std::string(code.substr(name_begin, name_end - name_begin + 1)),
        name_begin});
  }

  // Form B: `std::shared_ptr<std::function<...>> NAME`.
  for (std::size_t pos = FindIdent(code, "shared_ptr");
       pos != std::string_view::npos;
       pos = FindIdent(code, "shared_ptr", pos + 1)) {
    std::size_t lt = pos + std::string_view("shared_ptr").size();
    if (lt >= code.size() || code[lt] != '<') continue;
    std::size_t gt = MatchForward(code, lt);
    if (gt == std::string_view::npos || !type_is_callable(lt + 1, gt)) continue;
    std::size_t name_pos = SkipWs(code, gt + 1);
    if (name_pos == std::string_view::npos) continue;
    std::string_view name = IdentAt(code, name_pos);
    if (name.empty()) continue;
    vars.push_back(SharedFn{std::string(name), name_pos});
  }

  // A `shared_ptr<function<...>> x = make_shared<...>()` declaration matches
  // both forms; keep one entry per name (earliest declaration wins) so each
  // bad capture is reported once.
  std::sort(vars.begin(), vars.end(), [](const SharedFn& a, const SharedFn& b) {
    return a.name != b.name ? a.name < b.name : a.decl_offset < b.decl_offset;
  });
  vars.erase(std::unique(vars.begin(), vars.end(),
                         [](const SharedFn& a, const SharedFn& b) {
                           return a.name == b.name;
                         }),
             vars.end());

  // 2. For each variable, find `*NAME =` / `(*NAME) =` assignments and
  //    inspect every lambda capture list inside the assigned expression.
  for (const SharedFn& var : vars) {
    for (std::size_t pos = FindIdent(code, var.name, var.decl_offset);
         pos != std::string_view::npos;
         pos = FindIdent(code, var.name, pos + 1)) {
      // Must be dereferenced: *NAME or *(NAME) or (*NAME).
      std::size_t before = SkipWsBack(code, pos == 0 ? 0 : pos - 1);
      if (before == std::string_view::npos) continue;
      bool deref = false;
      if (code[before] == '*') deref = true;
      if (code[before] == '(' && before > 0) {
        std::size_t b2 = SkipWsBack(code, before - 1);
        if (b2 != std::string_view::npos && code[b2] == '*') deref = true;
      }
      if (!deref) continue;
      // Followed (after optional close-paren) by '='.
      std::size_t after = pos + var.name.size();
      std::size_t eq = SkipWs(code, after);
      if (eq != std::string_view::npos && code[eq] == ')') {
        eq = SkipWs(code, eq + 1);
      }
      if (eq == std::string_view::npos || code[eq] != '=' ||
          (eq + 1 < code.size() && code[eq + 1] == '=')) {
        continue;
      }
      // Statement extent: to the ';' that closes the assignment (top-level).
      std::size_t stmt_end = eq;
      {
        int paren = 0, brace = 0, bracket = 0;
        for (std::size_t i = eq + 1; i < code.size(); ++i) {
          char c = code[i];
          if (c == '(') ++paren;
          else if (c == ')') --paren;
          else if (c == '{') ++brace;
          else if (c == '}') --brace;
          else if (c == '[') ++bracket;
          else if (c == ']') --bracket;
          else if (c == ';' && paren == 0 && brace == 0 && bracket == 0) {
            stmt_end = i;
            break;
          }
        }
        if (stmt_end == eq) stmt_end = code.size();
      }
      // Every lambda introducer inside the assigned expression.
      for (std::size_t lb = eq; lb < stmt_end; ++lb) {
        if (code[lb] != '[') continue;
        // Heuristic lambda-vs-subscript test: '[' at expression start.
        std::size_t prev = SkipWsBack(code, lb == 0 ? 0 : lb - 1);
        if (prev != std::string_view::npos &&
            (IsIdentChar(code[prev]) || code[prev] == ')' ||
             code[prev] == ']')) {
          continue;  // subscript or attribute-ish
        }
        std::size_t rb = MatchForward(code, lb);
        if (rb == std::string_view::npos || rb > stmt_end) continue;
        for (Piece item : SplitTopLevel(code, lb + 1, rb)) {
          if (item.begin >= item.end) continue;
          // Plain capture `NAME` -> shared_ptr copy into the stored closure.
          if (PieceEquals(code, item, var.name)) {
            Report(file, item.begin, kSelfCapture,
                   "closure stored in shared callable '" + var.name +
                       "' captures its own owner by value (shared_ptr "
                       "cycle: the stored closure can never be freed); "
                       "capture a std::weak_ptr and keep the strong "
                       "reference in each pending continuation instead",
                   findings);
            continue;
          }
          // Init-capture `x = NAME` -> same cycle under an alias.
          std::size_t eq_in = std::string_view::npos;
          int angle = 0;
          for (std::size_t i = item.begin; i < item.end; ++i) {
            char c = code[i];
            if (c == '<') ++angle;
            else if (c == '>' && angle > 0) --angle;
            else if (c == '=' && angle == 0 && code[i + 1] != '=' &&
                     (i == 0 || code[i - 1] != '!')) {
              eq_in = i;
              break;
            }
          }
          if (eq_in != std::string_view::npos) {
            Piece rhs = Trim(code, eq_in + 1, item.end);
            if (PieceEquals(code, rhs, var.name)) {
              Report(file, item.begin, kSelfCapture,
                     "init-capture copies shared callable '" + var.name +
                         "' into its own stored closure (shared_ptr "
                         "cycle); capture std::weak_ptr<...>(" + var.name +
                         ") instead",
                     findings);
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// dcdo-mutable-nonatomic-in-const
//
// The PR 4 race class: BindingAgent::Lookup was `const`, incremented a
// `mutable std::uint64_t lookups_served_`, and was probed from concurrent
// test threads — a data race invisible in single-threaded runs. The fix
// (and the clean pattern) is an atomic counter (`trace::Counter`) or a
// mutex held around the write. The check flags writes to mutable
// non-atomic members from const methods whose body acquires no lock.
// ---------------------------------------------------------------------------
namespace {

struct MutableMember {
  std::string name;
  std::string type;
  std::size_t decl_offset;
};

bool TypeLooksSynchronized(std::string_view type) {
  static constexpr std::array<const char*, 6> kSafe = {
      "atomic", "Counter", "mutex", "condition_variable", "once_flag",
      "latch"};
  for (const char* s : kSafe) {
    if (type.find(s) != std::string_view::npos) return true;
  }
  return false;
}

bool BodyAcquiresLock(std::string_view body) {
  static constexpr std::array<const char*, 6> kLocks = {
      "lock_guard", "unique_lock", "scoped_lock", "shared_lock", ".lock()",
      ".Lock()"};
  for (const char* s : kLocks) {
    if (body.find(s) != std::string_view::npos) return true;
  }
  return false;
}

// Collects `mutable` member declarations per class. Returns a map from
// class name to members, and records each class body's extent so const
// methods defined inline can be attributed.
struct ClassInfo {
  std::string name;
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
  std::vector<MutableMember> mutables;
};

std::vector<ClassInfo> CollectClasses(std::string_view code) {
  std::vector<ClassInfo> out;
  for (std::string_view kw : {"class", "struct"}) {
    for (std::size_t pos = FindIdent(code, kw); pos != std::string_view::npos;
         pos = FindIdent(code, kw, pos + 1)) {
      std::size_t name_pos = SkipWs(code, pos + kw.size());
      if (name_pos == std::string_view::npos) continue;
      // Skip attributes like `class [[nodiscard]] Status`.
      while (name_pos + 1 < code.size() && code[name_pos] == '[' &&
             code[name_pos + 1] == '[') {
        std::size_t close = code.find("]]", name_pos);
        if (close == std::string_view::npos) break;
        name_pos = SkipWs(code, close + 2);
        if (name_pos == std::string_view::npos) break;
      }
      if (name_pos == std::string_view::npos) continue;
      std::string_view name = IdentAt(code, name_pos);
      if (name.empty() || name == "alignas") continue;
      // Find the opening brace before any ';' (skip fwd decls); tolerate
      // base-class lists.
      std::size_t scan = name_pos + name.size();
      std::size_t open = std::string_view::npos;
      int angle = 0;
      for (; scan < code.size(); ++scan) {
        char c = code[scan];
        if (c == '<') ++angle;
        else if (c == '>' && angle > 0) --angle;
        else if (c == ';' && angle == 0) break;
        else if (c == '{' && angle == 0) {
          open = scan;
          break;
        }
        else if (c == '(' && angle == 0) break;  // constructor/call, not decl
      }
      if (open == std::string_view::npos) continue;
      std::size_t close = MatchForward(code, open);
      if (close == std::string_view::npos) continue;
      ClassInfo info;
      info.name = std::string(name);
      info.body_begin = open + 1;
      info.body_end = close;
      out.push_back(std::move(info));
    }
  }

  // Attribute each `mutable` declaration to the innermost enclosing class.
  for (std::size_t pos = FindIdent(code, "mutable");
       pos != std::string_view::npos;
       pos = FindIdent(code, "mutable", pos + 1)) {
    // `mutable` also marks lambdas: `] ( ... ) mutable {`. Lambda usage is
    // preceded by ')' (or ']'), member declarations by ';', '{', ':'.
    std::size_t prev = SkipWsBack(code, pos == 0 ? 0 : pos - 1);
    if (prev != std::string_view::npos &&
        (code[prev] == ')' || code[prev] == ']')) {
      continue;
    }
    std::size_t semi = code.find(';', pos);
    if (semi == std::string_view::npos) continue;
    // Declaration text: `mutable TYPE name_ [= init] ;` (or `{init}`).
    std::size_t decl_end = semi;
    int angle = 0;
    for (std::size_t i = pos; i < semi; ++i) {
      char c = code[i];
      if (c == '<') ++angle;
      else if (c == '>' && angle > 0) --angle;
      else if ((c == '=' || c == '{') && angle == 0) {
        decl_end = i;
        break;
      }
    }
    Piece decl = Trim(code, pos + 7, decl_end);
    // Member name = last identifier in the declaration.
    std::size_t name_end = decl.end;
    while (name_end > decl.begin && !IsIdentChar(code[name_end - 1])) {
      --name_end;
    }
    std::size_t name_begin = name_end;
    while (name_begin > decl.begin && IsIdentChar(code[name_begin - 1])) {
      --name_begin;
    }
    if (name_begin >= name_end) continue;
    MutableMember member;
    member.name = std::string(code.substr(name_begin, name_end - name_begin));
    member.type = Snippet(code, Trim(code, decl.begin, name_begin));
    member.decl_offset = pos;
    // Innermost class containing this offset.
    ClassInfo* owner = nullptr;
    for (ClassInfo& info : out) {
      if (info.body_begin <= pos && pos < info.body_end &&
          (owner == nullptr || info.body_begin > owner->body_begin)) {
        owner = &info;
      }
    }
    if (owner != nullptr) owner->mutables.push_back(std::move(member));
  }
  return out;
}

// Finds const-qualified method bodies: `) const [noexcept|override|final]* {`.
// Calls `fn(name_of_method, body_begin, body_end, signature_offset)`.
template <typename Fn>
void ForEachConstMethodBody(std::string_view code, Fn fn) {
  for (std::size_t pos = FindIdent(code, "const");
       pos != std::string_view::npos;
       pos = FindIdent(code, "const", pos + 1)) {
    std::size_t prev = SkipWsBack(code, pos == 0 ? 0 : pos - 1);
    if (prev == std::string_view::npos || code[prev] != ')') continue;
    // Walk forward over trailing specifiers to an opening brace.
    std::size_t scan = pos + 5;
    for (;;) {
      scan = SkipWs(code, scan);
      if (scan == std::string_view::npos) break;
      std::string_view word = IdentAt(code, scan);
      if (word == "noexcept" || word == "override" || word == "final") {
        scan += word.size();
        if (std::size_t p = SkipWs(code, scan);
            p != std::string_view::npos && code[p] == '(') {
          std::size_t close = MatchForward(code, p);
          if (close == std::string_view::npos) break;
          scan = close + 1;
        }
        continue;
      }
      break;
    }
    if (scan == std::string_view::npos || code[scan] != '{') continue;
    std::size_t body_end = MatchForward(code, scan);
    if (body_end == std::string_view::npos) continue;
    // Method name: identifier before the '(' matching the ')' at `prev`.
    std::size_t open = std::string_view::npos;
    {
      int depth = 0;
      for (std::size_t i = prev;; --i) {
        if (code[i] == ')') ++depth;
        else if (code[i] == '(') {
          if (--depth == 0) {
            open = i;
            break;
          }
        }
        if (i == 0) break;
      }
    }
    if (open == std::string_view::npos || open == 0) continue;
    std::size_t name_end = SkipWsBack(code, open - 1);
    if (name_end == std::string_view::npos || !IsIdentChar(code[name_end])) {
      continue;
    }
    std::size_t name_begin = name_end;
    while (name_begin > 0 && IsIdentChar(code[name_begin - 1])) --name_begin;
    fn(code.substr(name_begin, name_end - name_begin + 1), scan + 1, body_end,
       name_begin);
  }
}

// Does `body` write to `member`? Returns the offset of the first write, or
// npos. Writes: prefix/postfix ++/--, assignment (=, +=, -=, ...), and
// calls to known mutating container/methods on the member.
std::size_t FindWriteTo(std::string_view code, std::size_t begin,
                        std::size_t end, const std::string& member) {
  static constexpr std::array<const char*, 12> kMutatingCalls = {
      "insert",  "erase",   "push_back", "emplace", "emplace_back", "clear",
      "pop_back", "assign", "store",     "splice",  "push_front",   "resize"};
  for (std::size_t pos = FindIdent(code.substr(0, end), member, begin);
       pos != std::string_view::npos && pos < end;
       pos = FindIdent(code.substr(0, end), member, pos + 1)) {
    // Qualified accesses (a.b_, x->b_) on some *other* object are still
    // member writes we care about only for `this`; skip obj.member_ forms
    // where obj is clearly not this.
    std::size_t prev = SkipWsBack(code, pos == 0 ? 0 : pos - 1);
    if (prev != std::string_view::npos) {
      if (code[prev] == '.' ||
          (code[prev] == '>' && prev > 0 && code[prev - 1] == '-')) {
        // allow `this->member_`
        std::size_t recv_end = code[prev] == '.' ? prev : prev - 1;
        std::size_t recv = SkipWsBack(code, recv_end == 0 ? 0 : recv_end - 1);
        if (recv == std::string_view::npos) continue;
        std::string_view maybe_this = "this";
        if (!(recv >= 3 &&
              code.substr(recv - 3, 4) == maybe_this)) {
          continue;
        }
      }
      // Prefix ++ / --.
      if ((code[prev] == '+' && prev > 0 && code[prev - 1] == '+') ||
          (code[prev] == '-' && prev > 0 && code[prev - 1] == '-')) {
        return pos;
      }
    }
    std::size_t after = SkipWs(code, pos + member.size());
    if (after == std::string_view::npos) continue;
    // Postfix ++ / --.
    if (after + 1 < code.size() &&
        ((code[after] == '+' && code[after + 1] == '+') ||
         (code[after] == '-' && code[after + 1] == '-'))) {
      return pos;
    }
    // Assignment: = but not == ; compound ops += -= *= /= |= &= ^=.
    if (code[after] == '=' &&
        (after + 1 >= code.size() || code[after + 1] != '=')) {
      return pos;
    }
    if ((code[after] == '+' || code[after] == '-' || code[after] == '*' ||
         code[after] == '/' || code[after] == '|' || code[after] == '&' ||
         code[after] == '^' || code[after] == '%') &&
        after + 1 < code.size() && code[after + 1] == '=') {
      return pos;
    }
    // Mutating method call: member_.call( .
    if (code[after] == '.' ||
        (code[after] == '-' && after + 1 < code.size() &&
         code[after + 1] == '>')) {
      std::size_t call = SkipWs(code, code[after] == '.' ? after + 1
                                                         : after + 2);
      if (call == std::string_view::npos) continue;
      std::string_view callee = IdentAt(code, call);
      for (const char* m : kMutatingCalls) {
        if (callee == m) return pos;
      }
    }
    // Subscript assignment: member_[k] = v.
    if (code[after] == '[') {
      std::size_t close = MatchForward(code, after);
      if (close != std::string_view::npos) {
        std::size_t eq = SkipWs(code, close + 1);
        if (eq != std::string_view::npos && code[eq] == '=' &&
            (eq + 1 >= code.size() || code[eq + 1] != '=')) {
          return pos;
        }
      }
    }
  }
  return std::string_view::npos;
}

}  // namespace

void CheckMutableNonatomicInConst(const SourceFile& file,
                                  const ProjectIndex& index,
                                  std::vector<Finding>* findings) {
  std::string_view code = file.code();
  std::vector<ClassInfo> classes = CollectClasses(code);

  // Class name -> mutable members, from this file AND the project index (so
  // a const method defined out-of-line in a .cc sees mutable members
  // declared in the class's header).
  std::map<std::string, std::vector<MutableMember>> by_name;
  for (const ClassInfo& info : classes) {
    if (!info.mutables.empty()) {
      auto& dst = by_name[info.name];
      dst.insert(dst.end(), info.mutables.begin(), info.mutables.end());
    }
  }
  for (const auto& [cls, members] : index.class_mutables) {
    auto& dst = by_name[cls];
    for (const auto& [name, type] : members) {
      bool dup = false;
      for (const MutableMember& m : dst) dup = dup || m.name == name;
      if (!dup) dst.push_back(MutableMember{name, type, 0});
    }
  }
  if (by_name.empty()) return;

  ForEachConstMethodBody(code, [&](std::string_view method_name,
                                   std::size_t body_begin,
                                   std::size_t body_end,
                                   std::size_t sig_offset) {
    // Which class does this const method belong to? Inline: innermost class
    // whose body contains it. Out-of-line: `Class::Method` qualification.
    std::string owner;
    std::size_t owner_begin = 0;
    for (const ClassInfo& info : classes) {
      if (info.body_begin <= sig_offset && sig_offset < info.body_end &&
          info.body_begin >= owner_begin) {
        owner = info.name;  // innermost enclosing class
        owner_begin = info.body_begin;
      }
    }
    if (owner.empty()) {
      // Out-of-line: look back for `Class::` before the method name.
      std::size_t colons = sig_offset;
      if (colons >= 2 && code[colons - 1] == ':' && code[colons - 2] == ':') {
        std::size_t cls_end = colons - 2;
        std::size_t cls_begin = cls_end;
        while (cls_begin > 0 && IsIdentChar(code[cls_begin - 1])) --cls_begin;
        owner = std::string(code.substr(cls_begin, cls_end - cls_begin));
      }
    }
    auto it = by_name.find(owner);
    if (owner.empty() || it == by_name.end()) return;
    std::string_view body = code.substr(0, body_end);
    if (BodyAcquiresLock(code.substr(body_begin, body_end - body_begin))) {
      return;
    }
    for (const MutableMember& member : it->second) {
      if (TypeLooksSynchronized(member.type)) continue;
      std::size_t write = FindWriteTo(body, body_begin, body_end, member.name);
      if (write != std::string_view::npos) {
        Report(file, write, kMutableConst,
               "const method '" + std::string(method_name) + "' writes " +
                   "mutable non-atomic member '" + member.name + "' (" +
                   member.type + ") with no lock held — a data race when "
                   "called concurrently (the BindingAgent::lookups_served_ "
                   "class); use std::atomic / trace::Counter or guard with "
                   "a mutex",
               findings);
      }
    }
  });
}

// ---------------------------------------------------------------------------
// dcdo-unordered-iteration-schedules
//
// The PR 5 determinism hazard: iterating an unordered container and
// scheduling simulation events (or sending messages) from the loop body
// makes event order depend on hash-table layout — SimTime_* baselines then
// drift across runs/platforms. The fix pattern is to copy keys into a
// sorted vector (or iterate an ordered index) before scheduling.
// ---------------------------------------------------------------------------
void CheckUnorderedIterationSchedules(const SourceFile& file,
                                      std::vector<Finding>* findings) {
  std::string_view code = file.code();

  // Names declared with an unordered container type anywhere in the file.
  std::set<std::string> unordered_names;
  for (std::string_view kw :
       {"unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"}) {
    for (std::size_t pos = FindIdent(code, kw); pos != std::string_view::npos;
         pos = FindIdent(code, kw, pos + 1)) {
      std::size_t lt = pos + kw.size();
      if (lt >= code.size() || code[lt] != '<') continue;
      std::size_t gt = MatchForward(code, lt);
      if (gt == std::string_view::npos) continue;
      std::size_t name_pos = SkipWs(code, gt + 1);
      // Tolerate `>* name`, `>& name`, `> name`.
      while (name_pos != std::string_view::npos &&
             (code[name_pos] == '*' || code[name_pos] == '&')) {
        name_pos = SkipWs(code, name_pos + 1);
      }
      if (name_pos == std::string_view::npos) continue;
      std::string_view name = IdentAt(code, name_pos);
      if (!name.empty()) unordered_names.insert(std::string(name));
    }
  }

  static constexpr std::array<const char*, 9> kSinks = {
      "Schedule",    "ScheduleAt",     "Send",    "SendMessage",
      "Transfer",    "TimedTransfer",  "StreamTransfer",
      "FetchTo",     "StreamTo"};

  for (std::size_t pos = FindIdent(code, "for");
       pos != std::string_view::npos; pos = FindIdent(code, "for", pos + 1)) {
    std::size_t open = SkipWs(code, pos + 3);
    if (open == std::string_view::npos || code[open] != '(') continue;
    std::size_t close = MatchForward(code, open);
    if (close == std::string_view::npos) continue;
    std::string_view head = code.substr(open + 1, close - open - 1);

    // Does the loop walk an unordered container?
    bool over_unordered = false;
    std::string container;
    // Range-for: `for (decl : range)` — find top-level ':' not '::'.
    std::size_t colon = std::string_view::npos;
    {
      int depth = 0;
      for (std::size_t i = 0; i < head.size(); ++i) {
        char c = head[i];
        if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
        else if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
        else if (c == ':' && depth == 0) {
          if ((i + 1 < head.size() && head[i + 1] == ':') ||
              (i > 0 && head[i - 1] == ':')) {
            continue;
          }
          colon = i;
          break;
        }
      }
    }
    if (colon != std::string_view::npos) {
      std::string_view range = head.substr(colon + 1);
      if (range.find("unordered_") != std::string_view::npos) {
        over_unordered = true;
        container = "(unordered container expression)";
      } else {
        for (const std::string& name : unordered_names) {
          if (FindIdent(range, name) != std::string_view::npos) {
            over_unordered = true;
            container = name;
            break;
          }
        }
      }
    } else {
      // Iterator form: `NAME.begin()` / `NAME.cbegin()` in the head.
      for (const std::string& name : unordered_names) {
        std::size_t at = FindIdent(head, name);
        if (at == std::string_view::npos) continue;
        std::size_t dot = at + name.size();
        if (dot < head.size() &&
            (head.compare(dot, 7, ".begin(") == 0 ||
             head.compare(dot, 8, ".cbegin(") == 0)) {
          over_unordered = true;
          container = name;
          break;
        }
      }
    }
    if (!over_unordered) continue;

    // Loop body extent: `{...}` or single statement up to ';'.
    std::size_t body_begin = SkipWs(code, close + 1);
    if (body_begin == std::string_view::npos) continue;
    std::size_t body_end;
    if (code[body_begin] == '{') {
      body_end = MatchForward(code, body_begin);
      if (body_end == std::string_view::npos) continue;
    } else {
      body_end = code.find(';', body_begin);
      if (body_end == std::string_view::npos) continue;
    }
    std::string_view body = code.substr(body_begin, body_end - body_begin);
    for (const char* sink : kSinks) {
      std::size_t at = FindIdent(body, sink);
      while (at != std::string_view::npos) {
        std::size_t paren = SkipWs(body, at + std::string_view(sink).size());
        if (paren != std::string_view::npos && body[paren] == '(') {
          Report(file, pos, kUnorderedSched,
                 "loop over unordered container " +
                     (container.empty() ? std::string("?") : container) +
                     " reaches '" + sink +
                     "' — event order then depends on hash layout and "
                     "SimTime baselines drift; iterate a sorted copy of "
                     "the keys (or an ordered index) instead",
                 findings);
          at = std::string_view::npos;  // one report per (loop, sink)
        } else {
          at = FindIdent(body, sink, at + 1);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// dcdo-wallclock-in-sim
//
// Simulation logic must take time from sim::Simulation — a wall-clock read
// (or OS randomness) inside the simulated world silently breaks replay
// determinism. Wall stamps are legitimate in the tracing layer and the
// bench harness, which the driver allowlists by path prefix.
// ---------------------------------------------------------------------------
void CheckWallclockInSim(const SourceFile& file,
                         std::vector<Finding>* findings) {
  std::string_view code = file.code();

  static constexpr std::array<const char*, 3> kClocks = {
      "steady_clock", "system_clock", "high_resolution_clock"};
  for (const char* clock : kClocks) {
    for (std::size_t pos = FindIdent(code, clock);
         pos != std::string_view::npos;
         pos = FindIdent(code, clock, pos + 1)) {
      std::size_t after = pos + std::string_view(clock).size();
      std::size_t now = SkipWs(code, after);
      if (now == std::string_view::npos ||
          code.compare(now, 2, "::") != 0) {
        continue;
      }
      now = SkipWs(code, now + 2);
      if (now != std::string_view::npos && IdentAt(code, now) == "now") {
        Report(file, pos, kWallclock,
               std::string(clock) +
                   "::now() in simulation code — wall time is not replay-"
                   "deterministic; use the Simulation clock (or move the "
                   "stamp behind the tracing layer)",
               findings);
      }
    }
  }

  for (std::size_t pos = FindIdent(code, "random_device");
       pos != std::string_view::npos;
       pos = FindIdent(code, "random_device", pos + 1)) {
    Report(file, pos, kWallclock,
           "std::random_device in simulation code — nondeterministic "
           "seeding breaks replay; use a fixed or configured seed",
           findings);
  }

  for (std::string_view fn : {"rand", "srand"}) {
    for (std::size_t pos = FindIdent(code, fn);
         pos != std::string_view::npos; pos = FindIdent(code, fn, pos + 1)) {
      // Must be a bare call: `rand(` with no receiver/qualifier.
      std::size_t paren = pos + fn.size();
      if (paren >= code.size() || code[paren] != '(') continue;
      std::size_t prev = SkipWsBack(code, pos == 0 ? 0 : pos - 1);
      if (prev != std::string_view::npos &&
          (code[prev] == '.' || code[prev] == ':' ||
           (code[prev] == '>' && prev > 0 && code[prev - 1] == '-'))) {
        // std::rand() is still the C RNG — allow the `std::` form to be
        // caught too, but skip obj.rand() / x->rand().
        bool std_qualified =
            code[prev] == ':' && prev >= 4 &&
            code.substr(prev - 4, 5) == "std::";
        if (!std_qualified) continue;
      }
      Report(file, pos, kWallclock,
             std::string(fn) + "() in simulation code — global C RNG is "
                               "unseeded/nondeterministic across platforms; "
                               "use a seeded engine from the cost model",
             findings);
    }
  }
}

// ---------------------------------------------------------------------------
// dcdo-status-discard
//
// `common::Status` is the error model (PAPER §3.2: absence is an ordinary,
// typed error) — a discarded Status is a silently dropped failure path.
// The class carries [[nodiscard]], so the compiler flags by-value discards;
// this check additionally covers name-indexed calls in macro bodies and
// code compiled without warnings, and is the form the fixture tests pin.
// ---------------------------------------------------------------------------
void CheckStatusDiscard(const SourceFile& file, const ProjectIndex& index,
                        std::vector<Finding>* findings) {
  std::string_view code = file.code();
  for (const std::string& name : index.status_returning) {
    if (index.Ambiguous(name)) continue;
    for (std::size_t pos = FindIdent(code, name);
         pos != std::string_view::npos;
         pos = FindIdent(code, name, pos + 1)) {
      std::size_t paren = SkipWs(code, pos + name.size());
      if (paren == std::string_view::npos || code[paren] != '(') continue;
      std::size_t close = MatchForward(code, paren);
      if (close == std::string_view::npos) continue;
      // The call must be the whole statement: `... ; [recv.]Name(...) ;`.
      std::size_t semi = SkipWs(code, close + 1);
      if (semi == std::string_view::npos || code[semi] != ';') continue;
      // Statement start: after previous ';', '{', or '}'.
      std::size_t stmt_begin = pos;
      while (stmt_begin > 0) {
        char c = code[stmt_begin - 1];
        if (c == ';' || c == '{' || c == '}') break;
        --stmt_begin;
      }
      Piece prefix = Trim(code, stmt_begin, pos);
      // Empty prefix: free call. Otherwise it must be a receiver chain
      // (`obj.` / `obj->` / `ns::obj.` / `arr[i].`); anything containing
      // '=', '(' (wrapping macro/call), 'return', or a declaration means
      // the value is used.
      bool discarded = true;
      for (std::size_t i = prefix.begin; i < prefix.end; ++i) {
        char c = code[i];
        if (IsIdentChar(c) || c == '.' || c == ':' || c == '_' ||
            std::isspace(static_cast<unsigned char>(c))) {
          continue;
        }
        if (c == '-' && i + 1 < prefix.end && code[i + 1] == '>') {
          ++i;
          continue;
        }
        if (c == '[' ) {
          std::size_t cl = MatchForward(code, i);
          if (cl != std::string_view::npos && cl < prefix.end) {
            i = cl;
            continue;
          }
        }
        discarded = false;
        break;
      }
      if (!discarded) continue;
      // Receiver chain must not end mid-word against the call name —
      // `Foo::Name(...)` as a qualified call is fine to flag; but a
      // declaration `Status Name(...)` is not a discard. Declarations have
      // an identifier immediately before the name (the return type).
      if (prefix.begin < prefix.end) {
        std::size_t last = SkipWsBack(code, pos - 1);
        if (last != std::string_view::npos && IsIdentChar(code[last])) {
          continue;  // `Type Name(...)` — a declaration, not a call
        }
      }
      // `return Name(...);` handled above ('return' hits IsIdentChar path —
      // catch it explicitly).
      {
        std::string p = Snippet(code, prefix);
        if (p.find("return") != std::string::npos ||
            p.find("co_return") != std::string::npos) {
          continue;
        }
      }
      Report(file, pos, kStatusDiscard,
             "result of Status-returning call '" + name +
                 "' is discarded — a dropped failure path; check it, "
                 "propagate with DCDO_RETURN_IF_ERROR, or cast to void "
                 "with a comment",
             findings);
    }
  }
}

// ---------------------------------------------------------------------------
// Index + driver
// ---------------------------------------------------------------------------
void IndexFile(const SourceFile& file, ProjectIndex* index) {
  std::string_view code = file.code();

  // Mutable members per class, for cross-file const-method attribution.
  for (const ClassInfo& info : CollectClasses(code)) {
    if (info.mutables.empty()) continue;
    auto& dst = index->class_mutables[info.name];
    for (const MutableMember& m : info.mutables) {
      bool dup = false;
      for (const auto& [name, type] : dst) dup = dup || name == m.name;
      if (!dup) dst.emplace_back(m.name, m.type);
    }
  }

  for (std::size_t pos = FindIdent(code, "Status");
       pos != std::string_view::npos;
       pos = FindIdent(code, "Status", pos + 1)) {
    // Return-type position: `Status Name(` possibly `common::Status` /
    // `dcdo::Status` (qualifiers sit before `Status`, which FindIdent
    // already lands on) — but NOT `Result<...>` or a variable declaration
    // used as a value. Next token must be an identifier, then '('.
    std::size_t name_pos = SkipWs(code, pos + 6);
    if (name_pos == std::string_view::npos) continue;
    std::string_view name = IdentAt(code, name_pos);
    if (name.empty()) continue;
    std::size_t paren = SkipWs(code, name_pos + name.size());
    if (paren == std::string_view::npos || code[paren] != '(') continue;
    // Skip `Class::Method` qualification in out-of-line definitions: the
    // name we index is the method, i.e. the identifier right before '('.
    // (IdentAt above already gives the first identifier; handle `A::B`.)
    std::string final_name(name);
    std::size_t q = name_pos + name.size();
    while (q + 1 < code.size() && code[q] == ':' && code[q + 1] == ':') {
      std::size_t next = q + 2;
      std::string_view part = IdentAt(code, next);
      if (part.empty()) break;
      final_name = std::string(part);
      q = next + part.size();
    }
    if (q != name_pos + name.size()) {
      paren = SkipWs(code, q);
      if (paren == std::string_view::npos || code[paren] != '(') continue;
    }
    // Exclude constructor-ish/keyword names and operator overloads.
    if (final_name == "if" || final_name == "while" || final_name == "for" ||
        final_name == "switch" || final_name == "operator") {
      continue;
    }
    // Exclude value contexts: `Status s(args)` is indistinguishable from a
    // declaration lexically; both are harmless to index (a *call* to a
    // variable name won't occur at statement position).
    index->status_returning.insert(final_name);
  }

  // Names also declared with other return types become ambiguous (collected
  // independently of scan order; the discard check intersects the two
  // sets). A small set of common return types is enough to kill overload
  // collisions like BindingAgent::Bind (void) vs NameService::Bind (Status).
  for (std::string_view ret :
       {"void", "bool", "int", "auto", "size_t", "uint64_t", "double",
        "string"}) {
    for (std::size_t pos = FindIdent(code, ret);
         pos != std::string_view::npos;
         pos = FindIdent(code, ret, pos + 1)) {
      std::size_t name_pos = SkipWs(code, pos + ret.size());
      if (name_pos == std::string_view::npos) continue;
      std::string_view name = IdentAt(code, name_pos);
      if (name.empty()) continue;
      std::size_t paren = SkipWs(code, name_pos + name.size());
      if (paren == std::string_view::npos || code[paren] != '(') continue;
      index->other_returning.insert(std::string(name));
    }
  }
}

// ---------------------------------------------------------------------------
// dcdo-cross-locality-schedule
//
// The dangling-reference class: a callback handed to a deferred
// scheduling sink (Simulation::Schedule / ScheduleAt / ScheduleFor /
// ScheduleAtFor / ScheduleGlobal, SimNetwork::Send) does not run in the
// enclosing frame — it fires later, from the event loop. A by-reference
// capture (`[&]` or `[&x]`) then dangles: the stack frame is long gone by
// the fire time. Deferred callbacks must capture by value: ids, copies, or
// owner pointers whose lifetime the scheduler controls. Driver code that
// runs the simulation to completion inside the capturing frame can
// suppress with NOLINT and a reason.
// ---------------------------------------------------------------------------
void CheckCrossLocalitySchedule(const SourceFile& file,
                                std::vector<Finding>* findings) {
  std::string_view code = file.code();

  static constexpr std::array<const char*, 6> kSinks = {
      "Schedule",      "ScheduleAt", "ScheduleFor", "ScheduleAtFor",
      "ScheduleGlobal", "Send"};
  for (const char* sink : kSinks) {
    const std::size_t sink_len = std::string_view(sink).size();
    for (std::size_t pos = FindIdent(code, sink);
         pos != std::string_view::npos;
         pos = FindIdent(code, sink, pos + 1)) {
      std::size_t paren = SkipWs(code, pos + sink_len);
      if (paren == std::string_view::npos || code[paren] != '(') continue;
      // A type name directly before the identifier marks a declaration
      // (`std::uint64_t Schedule(...)`), not a call.
      std::size_t prev = SkipWsBack(code, pos == 0 ? 0 : pos - 1);
      if (prev != std::string_view::npos && IsIdentChar(code[prev])) continue;
      std::size_t close = MatchForward(code, paren);
      if (close == std::string_view::npos) continue;

      // Every lambda introducer inside the argument span.
      for (std::size_t lb = paren + 1; lb < close; ++lb) {
        if (code[lb] != '[') continue;
        // '[' at expression start is a lambda; after an identifier, ')' or
        // ']' it is a subscript.
        std::size_t lp = SkipWsBack(code, lb == 0 ? 0 : lb - 1);
        if (lp != std::string_view::npos &&
            (IsIdentChar(code[lp]) || code[lp] == ')' || code[lp] == ']')) {
          continue;
        }
        std::size_t rb = MatchForward(code, lb);
        if (rb == std::string_view::npos || rb > close) continue;
        // Confirm a lambda: a parameter list or body must follow.
        std::size_t after = SkipWs(code, rb + 1);
        if (after == std::string_view::npos ||
            (code[after] != '(' && code[after] != '{')) {
          continue;
        }
        for (Piece item : SplitTopLevel(code, lb + 1, rb)) {
          Piece t = Trim(code, item.begin, item.end);
          if (t.begin >= t.end || code[t.begin] != '&') continue;
          // Any leading '&' is a by-reference capture: bare `&` (default),
          // `&name`, or `&name = expr` (reference init-capture). `&&` cannot
          // appear in a capture list.
          std::string what =
              (t.end - t.begin) == 1
                  ? std::string("default by-reference capture '&'")
                  : "by-reference capture '" + Snippet(code, t) + "'";
          Report(file, t.begin, kCrossLocality,
                 what + " in a callback passed to deferred sink '" +
                     std::string(sink) +
                     "' — the callback fires from the event loop after this "
                     "frame returns, so the reference dangles; capture by "
                     "value instead",
                 findings);
          break;  // one report per lambda
        }
        lb = rb;  // resume after this capture list
      }
    }
  }
}

// ---------------------------------------------------------------------------
// dcdo-continuation-chain
//
// The PR 10 heap-continuation class: multi-step async operations written as
// `std::make_shared<std::function<void(...)>>()` self-referencing closure
// loops, or as `enable_shared_from_this` driver structs whose methods chain
// through `shared_from_this()` captures. Both shapes heap-allocate every
// hop, scatter one operation's state across closures, and were the source
// of the self-capture leaks the older check hunts case by case. The repo's
// replacement is the pooled runtime::Fom state machine (DESIGN.md §16):
// one phase enum, one Tick(), one pooled allocation for the whole
// operation. New code outside src/runtime/ (which implements the Fom
// machinery itself) should not introduce either shape.
// ---------------------------------------------------------------------------
void CheckContinuationChain(const SourceFile& file,
                            std::vector<Finding>* findings) {
  std::string_view code = file.code();

  // Shape A: make_shared of a callable type — the heap-closure chain cell.
  for (std::size_t pos = FindIdent(code, "make_shared");
       pos != std::string_view::npos;
       pos = FindIdent(code, "make_shared", pos + 1)) {
    std::size_t lt = pos + std::string_view("make_shared").size();
    if (lt >= code.size() || code[lt] != '<') continue;
    std::size_t gt = MatchForward(code, lt);
    if (gt == std::string_view::npos) continue;
    std::string_view inner = code.substr(lt + 1, gt - lt - 1);
    if (inner.find("function") == std::string_view::npos &&
        inner.find("MoveFunction") == std::string_view::npos) {
      continue;
    }
    Report(file, pos, kContinuation,
           "heap-allocated continuation cell 'make_shared<" +
               Snippet(code, Trim(code, lt + 1, gt)) +
               ">' — closure-chain drivers allocate per hop and scatter one "
               "operation's state across captures; port the operation to a "
               "pooled runtime::Fom (phase enum + Tick(), DESIGN.md §16)",
           findings);
  }

  // Shape B: enable_shared_from_this driver structs. The identifier only
  // appears in base-clause position (`: std::enable_shared_from_this<T>`);
  // chained hops call shared_from_this(), a different identifier.
  for (std::size_t pos = FindIdent(code, "enable_shared_from_this");
       pos != std::string_view::npos;
       pos = FindIdent(code, "enable_shared_from_this", pos + 1)) {
    Report(file, pos, kContinuation,
           "enable_shared_from_this driver struct — self-keepalive "
           "continuation drivers heap-allocate per operation and hide the "
           "phase structure in capture chains; port to a pooled "
           "runtime::Fom (phase enum + Tick(), DESIGN.md §16)",
           findings);
  }
}

void RunChecks(const SourceFile& file, const ProjectIndex& index,
               const CheckOptions& options, std::vector<Finding>* findings) {
  auto enabled = [&](const char* name) {
    return options.enabled.empty() || options.enabled.count(name) != 0;
  };
  if (enabled(kSelfCapture)) CheckSharedFunctionSelfCapture(file, findings);
  if (enabled(kMutableConst)) {
    CheckMutableNonatomicInConst(file, index, findings);
  }
  if (enabled(kUnorderedSched)) {
    CheckUnorderedIterationSchedules(file, findings);
  }
  if (enabled(kWallclock)) {
    bool allowed = false;
    for (const std::string& prefix : options.wallclock_allow_prefixes) {
      if (file.path().rfind(prefix, 0) == 0 ||
          file.path().find("/" + prefix) != std::string::npos) {
        allowed = true;
        break;
      }
    }
    if (!allowed) CheckWallclockInSim(file, findings);
  }
  if (enabled(kStatusDiscard)) CheckStatusDiscard(file, index, findings);
  if (enabled(kCrossLocality)) CheckCrossLocalitySchedule(file, findings);
  if (enabled(kContinuation)) {
    bool allowed = false;
    for (const std::string& prefix : options.continuation_allow_prefixes) {
      if (file.path().rfind(prefix, 0) == 0 ||
          file.path().find("/" + prefix) != std::string::npos) {
        allowed = true;
        break;
      }
    }
    if (!allowed) CheckContinuationChain(file, findings);
  }
  std::sort(findings->begin(), findings->end());
}

}  // namespace dcdo_tidy
