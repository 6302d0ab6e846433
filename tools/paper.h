// `tcsctl paper [artifact]`: the paper's tables, figures and ablations (tools/paper.cc).

#ifndef TCS_TOOLS_PAPER_H_
#define TCS_TOOLS_PAPER_H_

#include <string>

namespace tcs {

// Prints the artifact `name`, or every artifact in table order when `name` is empty, and
// returns 0. An unknown name lists the valid names on stderr and returns 2.
int RunPaper(const std::string& name);

}  // namespace tcs

#endif  // TCS_TOOLS_PAPER_H_
