#ifndef CARP_CORE_SEARCH_ENGINE_H_
#define CARP_CORE_SEARCH_ENGINE_H_

namespace carp::core {

/// Which search engine answers space-time queries: the time-expanded
/// (cell, t) A* of src/core/spacetime_astar.cc is the only one. Kept as a
/// label so run records name the engine that produced their numbers.
enum class SearchEngine : int {
  kAstar = 0,
};

/// Lower-case spelling of the engine ("astar").
inline const char* ToString(SearchEngine) { return "astar"; }

}  // namespace carp::core

#endif  // CARP_CORE_SEARCH_ENGINE_H_
