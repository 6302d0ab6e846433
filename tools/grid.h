// The one grid runner behind every tcsctl sweep, every multi-axis paper artifact and the
// paper suite itself. A grid is an explicit list of cells in the order the serial loops
// would visit them; Grid::Run runs them on a ParallelSweep pool and returns each result
// next to its cell, in list order, so no caller decodes a flat index and no output
// depends on the worker count. A grid started on a pool worker (an artifact's sweep
// inside the suite) runs its cells inline on that worker, so nested grids never run more
// threads than there are workers.

#ifndef TCS_TOOLS_GRID_H_
#define TCS_TOOLS_GRID_H_

#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "src/core/parallel_sweep.h"

namespace tcs {

// One cell's result next to the cell.
template <typename Cell, typename Result>
struct Ran {
  Cell cell;
  Result result;
};

class Grid {
 public:
  // jobs <= 0 runs one worker per core.
  explicit Grid(int jobs = 0) : pool_(jobs) {}

  int workers() const { return pool_.workers(); }

  // Runs fn(cell) for every cell and returns each result with its cell, in list order.
  template <typename Cell, typename Fn>
  auto Run(const std::vector<Cell>& cells, Fn fn) const {
    return pool_.Map(static_cast<int>(cells.size()), [&](int i) {
      const Cell& cell = cells[static_cast<size_t>(i)];
      return Ran<Cell, std::invoke_result_t<Fn&, const Cell&>>{cell, fn(cell)};
    });
  }

 private:
  ParallelSweep pool_;
};

// `ran` cut into runs of consecutive cells with equal key(cell), such as the rows of one
// OS profile's table.
template <typename Range, typename Key>
auto GroupBy(const Range& ran, Key key) {
  std::span<const typename Range::value_type> all(ran);
  std::vector<decltype(all)> groups;
  size_t start = 0;
  for (size_t i = 1; i <= all.size(); ++i) {
    if (i == all.size() || !(key(all[i].cell) == key(all[start].cell))) {
      groups.push_back(all.subspan(start, i - start));
      start = i;
    }
  }
  return groups;
}

// printf into a string: how a cell renders what it prints, so a grid can print its
// cells' output in list order whichever worker ran them.
__attribute__((format(printf, 1, 2))) inline std::string Format(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list again;
  va_copy(again, args);
  std::string out(static_cast<size_t>(std::vsnprintf(nullptr, 0, format, args)), '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, again);
  va_end(again);
  va_end(args);
  return out;
}

}  // namespace tcs

#endif  // TCS_TOOLS_GRID_H_
