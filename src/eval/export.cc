#include "eval/export.h"

#include <fstream>

namespace goalrec::eval {
namespace {

util::Status WriteCsv(const std::string& path, const TextTable& table) {
  std::ofstream out(path);
  if (!out) return util::IoError("cannot open " + path + " for writing");
  out << table.ToCsv();
  if (!out) return util::IoError("write failed: " + path);
  return util::Status::Ok();
}

}  // namespace

util::Status ExportReportsCsv(const std::string& directory,
                              const data::Dataset& dataset,
                              const std::vector<data::EvalUser>& users,
                              const std::vector<model::Activity>& inputs,
                              const std::vector<MethodResult>& results) {
  util::Status status = WriteCsv(directory + "/overlap.csv",
                                 BuildOverlapTable(ComputeOverlap(results)));
  if (!status.ok()) return status;

  status = WriteCsv(directory + "/popularity_correlation.csv",
                    BuildCorrelationTable(
                        ComputePopularityCorrelations(inputs, results)));
  if (!status.ok()) return status;

  status = WriteCsv(directory + "/completeness.csv",
                    BuildCompletenessTable(ComputeCompleteness(
                        dataset.library, users, results)));
  if (!status.ok()) return status;

  std::vector<TprRow> tpr = ComputeTpr(users, results);
  status = WriteCsv(directory + "/tpr.csv", BuildTprTable(tpr, tpr));
  if (!status.ok()) return status;

  if (!dataset.features.empty()) {
    status = WriteCsv(directory + "/pairwise_similarity.csv",
                      BuildSimilarityTable(ComputePairwiseSimilarity(
                          dataset.features, results)));
    if (!status.ok()) return status;
  }
  return util::Status::Ok();
}

}  // namespace goalrec::eval
