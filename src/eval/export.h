#ifndef GOALREC_EVAL_EXPORT_H_
#define GOALREC_EVAL_EXPORT_H_

#include <string>
#include <vector>

#include "data/splitter.h"
#include "eval/reports.h"
#include "eval/suite.h"
#include "util/status.h"

// Machine-readable export of a full evaluation run: one CSV per paper
// metric, written into a directory, ready for a plotting pipeline. The
// CLI's `evaluate --out=<dir>` drives this.

namespace goalrec::eval {

/// Computes overlap, popularity correlation, completeness, TPR (and, with
/// features, pairwise similarity) from `results` and writes
/// overlap.csv / popularity_correlation.csv / completeness.csv / tpr.csv /
/// pairwise_similarity.csv into `directory` (which must exist).
/// Returns the first failure, if any.
util::Status ExportReportsCsv(const std::string& directory,
                              const data::Dataset& dataset,
                              const std::vector<data::EvalUser>& users,
                              const std::vector<model::Activity>& inputs,
                              const std::vector<MethodResult>& results);

}  // namespace goalrec::eval

#endif  // GOALREC_EVAL_EXPORT_H_
