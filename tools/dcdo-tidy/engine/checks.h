// The seven dcdo-tidy checks, lexical-engine implementation.
//
// Each check mechanizes a bug class this repo has fixed by hand at least
// once (see DESIGN.md §12 for the catalogue and the history behind each):
//
//   dcdo-shared-function-self-capture   PR 3 review / PR 5 leak class
//   dcdo-mutable-nonatomic-in-const     PR 4 `lookups_served_` race class
//   dcdo-unordered-iteration-schedules  PR 5 determinism hazard class
//   dcdo-wallclock-in-sim               sim-determinism hazard
//   dcdo-status-discard                 silently dropped error paths
//   dcdo-cross-locality-schedule        migration-callback dangling reference
//   dcdo-continuation-chain             PR 10 heap-continuation class
//
// This engine is dependency-free so analysis runs on every machine; it is
// deliberately conservative — heuristics are tuned so that everything it
// reports on this codebase is a true instance of the pattern, with NOLINT
// comments as the escape hatch.
#ifndef DCDO_TOOLS_DCDO_TIDY_ENGINE_CHECKS_H_
#define DCDO_TOOLS_DCDO_TIDY_ENGINE_CHECKS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "engine/text.h"

namespace dcdo_tidy {

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::size_t col = 0;
  std::string check;
  std::string message;

  bool operator<(const Finding& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    if (col != o.col) return col < o.col;
    return check < o.check;
  }
};

// Names of all checks, in catalogue order.
const std::vector<std::string>& AllCheckNames();

// Cross-file facts gathered before per-file checking runs.
struct ProjectIndex {
  // Function/method names declared with a `Status` return type somewhere in
  // the project (value returns only — reference getters are excluded).
  std::set<std::string> status_returning;
  // Names declared anywhere with a non-Status return type. Name-based
  // matching cannot disambiguate overloads, so names in both sets are
  // dropped from the discard check rather than risk false positives.
  std::set<std::string> other_returning;

  bool Ambiguous(const std::string& name) const {
    return other_returning.count(name) != 0;
  }

  // Class name -> (member name, member type) for every `mutable` member
  // declared anywhere in the project. Lets the mutable-in-const check
  // attribute an out-of-line `Class::Method(...) const` body in a .cc file
  // to mutable members declared in the class's header — the shape of the
  // historical BindingAgent::lookups_served_ bug.
  std::map<std::string, std::vector<std::pair<std::string, std::string>>>
      class_mutables;
};

// Scans `file` for declarations feeding the index.
void IndexFile(const SourceFile& file, ProjectIndex* index);

struct CheckOptions {
  // Checks to run (names from AllCheckNames()); empty = all.
  std::set<std::string> enabled;
  // Path prefixes where dcdo-wallclock-in-sim stays quiet (wall-stamp code
  // like src/trace, and the bench harness).
  std::vector<std::string> wallclock_allow_prefixes;
  // Path prefixes where dcdo-continuation-chain stays quiet — the Fom
  // runtime itself (src/runtime/), which is the sanctioned replacement for
  // the patterns the check flags.
  std::vector<std::string> continuation_allow_prefixes;
};

// Runs all enabled checks over `file`, appending unsuppressed findings.
void RunChecks(const SourceFile& file, const ProjectIndex& index,
               const CheckOptions& options, std::vector<Finding>* findings);

// Individual checks (exposed for the unit/fixture tests).
void CheckSharedFunctionSelfCapture(const SourceFile& file,
                                    std::vector<Finding>* findings);
void CheckMutableNonatomicInConst(const SourceFile& file,
                                  const ProjectIndex& index,
                                  std::vector<Finding>* findings);
void CheckUnorderedIterationSchedules(const SourceFile& file,
                                      std::vector<Finding>* findings);
void CheckWallclockInSim(const SourceFile& file,
                         std::vector<Finding>* findings);
void CheckStatusDiscard(const SourceFile& file, const ProjectIndex& index,
                        std::vector<Finding>* findings);
void CheckCrossLocalitySchedule(const SourceFile& file,
                                std::vector<Finding>* findings);
void CheckContinuationChain(const SourceFile& file,
                            std::vector<Finding>* findings);

}  // namespace dcdo_tidy

#endif  // DCDO_TOOLS_DCDO_TIDY_ENGINE_CHECKS_H_
