#ifndef GOALREC_MODEL_EXPORT_DOT_H_
#define GOALREC_MODEL_EXPORT_DOT_H_

#include <string>

#include "model/library.h"
#include "model/types.h"
#include "util/status.h"

// Graphviz export of the association-based goal model, for eyeballing the
// hypergraph structure the paper's Figure 2 sketches: goals as boxes,
// actions as ellipses, an edge per (goal, action) containment labelled with
// the number of that goal's implementations the action appears in.

namespace goalrec::model {

struct DotOptions {
  /// Restrict the rendering to these goals; empty = all goals (use with
  /// care on large libraries — DOT rendering degrades fast).
  IdSet goals;
};

/// Renders the DOT source.
std::string ToDot(const ImplementationLibrary& library,
                  const DotOptions& options = {});

/// Writes ToDot's output to `path`.
util::Status ExportDot(const ImplementationLibrary& library,
                       const std::string& path,
                       const DotOptions& options = {});

}  // namespace goalrec::model

#endif  // GOALREC_MODEL_EXPORT_DOT_H_
