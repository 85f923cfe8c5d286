// Source-text layer for the dcdo-tidy engine.
//
// The engine is a lexical analyzer, not a parser: it works on a "code view"
// of each file where comments and string/character literals are blanked out
// (replaced by spaces, newlines preserved) so that token scans never match
// inside prose, while every offset in the code view still maps 1:1 onto the
// original file for line/column reporting. Comment text is not discarded —
// `NOLINT` / `NOLINTNEXTLINE` markers are recorded per line so findings can
// be suppressed exactly like clang-tidy does.
#ifndef DCDO_TOOLS_DCDO_TIDY_ENGINE_TEXT_H_
#define DCDO_TOOLS_DCDO_TIDY_ENGINE_TEXT_H_

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace dcdo_tidy {

// One parsed source file.
class SourceFile {
 public:
  // Reads `path`; returns false (and sets `error`) if unreadable.
  bool Load(const std::string& path, std::string* error);

  // Builds a SourceFile from in-memory text (tests).
  void LoadFromString(std::string path, std::string text);

  const std::string& path() const { return path_; }
  // Original text, verbatim.
  const std::string& raw() const { return raw_; }
  // Same length as raw(): comments and string/char literal *contents* are
  // spaces, newlines kept, everything else verbatim.
  const std::string& code() const { return code_; }

  // 1-based line containing `offset`.
  std::size_t LineOf(std::size_t offset) const;
  // 1-based column of `offset` within its line.
  std::size_t ColOf(std::size_t offset) const;
  std::size_t line_count() const { return line_starts_.size(); }
  // Raw text of 1-based line `line` (no trailing newline).
  std::string_view RawLine(std::size_t line) const;

  // True if a finding of `check` on 1-based `line` is suppressed by a
  // `NOLINT`/`NOLINT(list)` comment on that line or a `NOLINTNEXTLINE` on
  // the previous line. An empty list suppresses every check; otherwise the
  // list must contain `check` or a `dcdo-*` glob-ish entry.
  bool IsSuppressed(std::size_t line, std::string_view check) const;

 private:
  void Analyze();
  void RecordNolint(std::size_t line, std::string_view comment);

  std::string path_;
  std::string raw_;
  std::string code_;
  std::vector<std::size_t> line_starts_;  // offset of each line start
  // line -> NOLINT filter lists. `same_line[l]` applies to line l,
  // `next_line[l]` (from NOLINTNEXTLINE on l) applies to line l+1. An empty
  // vector means "suppress all checks".
  std::map<std::size_t, std::vector<std::string>> nolint_same_;
  std::map<std::size_t, std::vector<std::string>> nolint_next_;
};

// --- Token-ish helpers shared by the checks. All operate on a code view. ---

bool IsIdentChar(char c);
bool IsIdentStart(char c);

// Returns the identifier starting at `pos`, or empty if none.
std::string_view IdentAt(std::string_view code, std::size_t pos);

// True if the identifier occurrence at [pos, pos+len) is a whole token (not
// a substring of a longer identifier).
bool IsWholeIdent(std::string_view code, std::size_t pos, std::size_t len);

// Finds the next whole-token occurrence of `ident` at or after `from`;
// npos if none.
std::size_t FindIdent(std::string_view code, std::string_view ident,
                      std::size_t from = 0);

// Given `code[open]` == one of ( [ { <, returns the offset of the matching
// closer, or npos. For '<' the scan is heuristic (treats << / >> and
// comparison-looking uses as non-brackets only via nesting arithmetic) —
// good enough for template argument lists in declarations.
std::size_t MatchForward(std::string_view code, std::size_t open);

// Skips whitespace forward/backward; returns npos when running off the end.
std::size_t SkipWs(std::string_view code, std::size_t pos);
std::size_t SkipWsBack(std::string_view code, std::size_t pos);

// Splits the range [begin, end) of `code` at top-level commas (commas not
// nested inside (), [], {}, or <>). Returns trimmed pieces as offsets.
struct Piece {
  std::size_t begin;
  std::size_t end;
};
std::vector<Piece> SplitTopLevel(std::string_view code, std::size_t begin,
                                 std::size_t end, char sep = ',');

// Trims ASCII whitespace from both ends of [begin, end).
Piece Trim(std::string_view code, std::size_t begin, std::size_t end);

// True if [begin,end) of `code`, with whitespace collapsed, equals `want`.
bool PieceEquals(std::string_view code, Piece p, std::string_view want);

}  // namespace dcdo_tidy

#endif  // DCDO_TOOLS_DCDO_TIDY_ENGINE_TEXT_H_
