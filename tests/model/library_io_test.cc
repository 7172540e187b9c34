#include "model/library_io.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include <span>

#include "obs/metrics.h"
#include "testing/fixtures.h"

namespace goalrec::model {
namespace {

// The CSR library hands out spans; materialise them for gtest comparisons
// (std::span has no operator==).
model::IdSet Ids(std::span<const uint32_t> ids) {
  return model::IdSet(ids.begin(), ids.end());
}

using goalrec::testing::PaperLibrary;
using goalrec::testing::RandomLibrary;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void ExpectLibrariesEqual(const ImplementationLibrary& a,
                          const ImplementationLibrary& b) {
  ASSERT_EQ(a.num_actions(), b.num_actions());
  ASSERT_EQ(a.num_goals(), b.num_goals());
  ASSERT_EQ(a.num_implementations(), b.num_implementations());
  for (uint32_t i = 0; i < a.num_actions(); ++i) {
    EXPECT_EQ(a.actions().Name(i), b.actions().Name(i));
  }
  for (uint32_t i = 0; i < a.num_goals(); ++i) {
    EXPECT_EQ(a.goals().Name(i), b.goals().Name(i));
  }
  for (ImplId p = 0; p < a.num_implementations(); ++p) {
    EXPECT_EQ(a.GoalOf(p), b.GoalOf(p));
    EXPECT_EQ(Ids(a.ActionsOf(p)), Ids(b.ActionsOf(p)));
  }
}

TEST(LibraryIoTest, TextRoundTrip) {
  std::string path = TempPath("goalrec_lib.txt");
  ImplementationLibrary original = PaperLibrary();
  ASSERT_TRUE(SaveLibraryText(original, path).ok());
  util::StatusOr<ImplementationLibrary> loaded = LoadLibraryText(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectLibrariesEqual(original, *loaded);
  std::remove(path.c_str());
}

std::string FirstBytes(const std::string& path, size_t n) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes(n, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(n));
  bytes.resize(static_cast<size_t>(in.gcount()));
  return bytes;
}

// The file name picks the format: ".snap" keeps vocabularies and ids
// exactly, any other name is text.
TEST(LibraryIoTest, SnapshotFileRoundTrip) {
  std::string snap = TempPath("goalrec_lib.snap");
  std::string text = TempPath("goalrec_lib_dispatch.txt");
  ImplementationLibrary original = RandomLibrary(40, 15, 200, 6, 77);
  ASSERT_TRUE(SaveLibraryFile(original, snap).ok());
  ASSERT_TRUE(SaveLibraryFile(original, text).ok());
  EXPECT_EQ(FirstBytes(snap, 8), "GRSNAP1\n");
  EXPECT_EQ(FirstBytes(text, 20), "# goalrec-library v1");
  util::StatusOr<ImplementationLibrary> loaded = LoadLibraryFile(snap);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectLibrariesEqual(original, *loaded);
  std::remove(snap.c_str());
  std::remove(text.c_str());
}

TEST(LibraryIoTest, TextRoundTripPreservesStructureOnRandomLibraries) {
  // The text format does not preserve numeric ids (DESIGN note), but the
  // named structure — the multiset of (goal name, action-name set) — must
  // survive exactly for any library whose entities are all active.
  for (uint64_t seed : {21u, 22u, 23u}) {
    ImplementationLibrary original = RandomLibrary(30, 12, 150, 5, seed);
    std::string path = TempPath("goalrec_lib_prop.txt");
    ASSERT_TRUE(SaveLibraryText(original, path).ok());
    util::StatusOr<ImplementationLibrary> loaded = LoadLibraryText(path);
    ASSERT_TRUE(loaded.ok());
    auto signature = [](const ImplementationLibrary& lib) {
      std::vector<std::string> entries;
      for (ImplId p = 0; p < lib.num_implementations(); ++p) {
        // Action ids permute across text round-trips; compare by sorted
        // *names*.
        std::vector<std::string> names;
        for (ActionId a : lib.ActionsOf(p)) {
          names.push_back(lib.actions().Name(a));
        }
        std::sort(names.begin(), names.end());
        std::string entry = lib.goals().Name(lib.GoalOf(p));
        for (const std::string& name : names) entry += "|" + name;
        entries.push_back(std::move(entry));
      }
      std::sort(entries.begin(), entries.end());
      return entries;
    };
    EXPECT_EQ(signature(original), signature(*loaded));
    std::remove(path.c_str());
  }
}

// An action no implementation references (a product nobody's recipe uses)
// is still part of the vocabulary: activity files name it, so the text
// format must keep it through a round-trip.
TEST(LibraryIoTest, TextRoundTripKeepsUnreferencedActions) {
  LibraryBuilder builder;
  builder.InternAction("unused_first");
  builder.AddImplementation("g", {"a1", "a2"});
  builder.InternAction("unused_last");
  ImplementationLibrary original = std::move(builder).Build();
  std::string path = TempPath("goalrec_lib_unreferenced.txt");
  ASSERT_TRUE(SaveLibraryText(original, path).ok());
  {
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(text,
              "# goalrec-library v1\ng\ta1\ta2\n"
              "#!unreferenced_action: unused_first\n"
              "#!unreferenced_action: unused_last\n");
  }
  util::StatusOr<ImplementationLibrary> loaded = LoadLibraryText(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_actions(), 4u);
  // Implementation lines intern first, so referenced ids come first.
  EXPECT_EQ(loaded->actions().Find("a1"), std::optional<ActionId>(0));
  EXPECT_EQ(loaded->actions().Find("a2"), std::optional<ActionId>(1));
  EXPECT_TRUE(loaded->actions().Find("unused_first").has_value());
  EXPECT_TRUE(loaded->actions().Find("unused_last").has_value());
  EXPECT_EQ(loaded->num_implementations(), 1u);
  std::remove(path.c_str());
}

TEST(LibraryIoTest, EmptyUnreferencedActionIsABadRecord) {
  std::string path = TempPath("goalrec_lib_bad_unreferenced.txt");
  {
    std::ofstream out(path);
    out << "# goalrec-library v1\ng\ta1\n#!unreferenced_action: \n";
  }
  util::StatusOr<ImplementationLibrary> strict = LoadLibraryText(path);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().ToString().find(":3:"), std::string::npos)
      << strict.status().ToString();
  LoadOptions quarantine;
  quarantine.mode = ValidationMode::kQuarantine;
  util::StatusOr<ImplementationLibrary> lenient =
      LoadLibraryText(path, quarantine);
  ASSERT_TRUE(lenient.ok()) << lenient.status().ToString();
  EXPECT_EQ(lenient->num_actions(), 1u);
  std::remove(path.c_str());
}

TEST(LibraryIoTest, TextFormatIsHumanReadable) {
  std::string path = TempPath("goalrec_lib_fmt.txt");
  ASSERT_TRUE(SaveLibraryText(PaperLibrary(), path).ok());
  std::ifstream in(path);
  std::string header, first;
  std::getline(in, header);
  std::getline(in, first);
  EXPECT_EQ(header, "# goalrec-library v1");
  EXPECT_EQ(first, "g1\ta1\ta2\ta3");
  std::remove(path.c_str());
}

TEST(LibraryIoTest, TextLoadSkipsCommentsAndBlankLines) {
  std::string path = TempPath("goalrec_lib_comments.txt");
  {
    std::ofstream out(path);
    out << "# goalrec-library v1\n"
        << "# a comment\n"
        << "\n"
        << "g\tx\ty\n";
  }
  util::StatusOr<ImplementationLibrary> loaded = LoadLibraryText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_implementations(), 1u);
  EXPECT_EQ(loaded->num_actions(), 2u);
  std::remove(path.c_str());
}

TEST(LibraryIoTest, TextLoadRejectsMissingHeader) {
  std::string path = TempPath("goalrec_lib_nohdr.txt");
  {
    std::ofstream out(path);
    out << "g\tx\n";
  }
  util::StatusOr<ImplementationLibrary> loaded = LoadLibraryText(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(LibraryIoTest, TextLoadRejectsImplementationWithoutActions) {
  std::string path = TempPath("goalrec_lib_bad.txt");
  {
    std::ofstream out(path);
    out << "# goalrec-library v1\n"
        << "goal_only\n";
  }
  util::StatusOr<ImplementationLibrary> loaded = LoadLibraryText(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

// Files in the retired length-prefixed binary format ("GRL1" magic, then
// u32 counts) are rejected with a Status under every name.
TEST(LibraryIoTest, LegacyBinaryFileIsRejected) {
  std::string legacy;
  for (uint32_t word : {0x47524C31u, 1u, 1u}) {
    for (int i = 0; i < 4; ++i) {
      legacy.push_back(static_cast<char>(word >> (8 * i)));
    }
  }
  legacy += 'a';
  for (const char* name :
       {"goalrec_lib_legacy.bin", "goalrec_lib_legacy.snap"}) {
    std::string path = TempPath(name);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << legacy;
    }
    util::StatusOr<ImplementationLibrary> loaded = LoadLibraryFile(path);
    EXPECT_FALSE(loaded.ok()) << name;
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument)
        << loaded.status().ToString();
    std::remove(path.c_str());
  }
}

TEST(LibraryIoTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadLibraryText("/nonexistent/lib.txt").ok());
  EXPECT_FALSE(LoadLibraryFile("/nonexistent/lib.snap").ok());
}

// `goalrec serve` and reload paths load through LoadLibrarySnapshot: it must
// hand back what quarantine dropped, and a ".snap" load must show up in
// goalrec_library_load_total like a text load does.
TEST(LibraryIoTest, LoadLibrarySnapshotReportsQuarantineAndCountsSnapshots) {
  std::string text = TempPath("goalrec_lib_serve_quarantine.txt");
  {
    std::ofstream out(text, std::ios::trunc);
    out << "# goalrec-library v1\ng1\ta1\ta2\nlonely_goal\ng2\ta3\n";
  }
  LoadOptions quarantine;
  quarantine.mode = ValidationMode::kQuarantine;
  LoadReport report;
  util::StatusOr<std::shared_ptr<const LibrarySnapshot>> served =
      LoadLibrarySnapshot(text, {}, quarantine, &report);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ((*served)->library.num_implementations(), 2u);
  EXPECT_EQ(report.records_quarantined, 1u);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].line, 3u);

  std::string snap = TempPath("goalrec_lib_serve_count.snap");
  ASSERT_TRUE(SaveLibraryFile((*served)->library, snap).ok());
  obs::Counter* snapshot_ok =
      obs::MetricRegistry::Default().GetCounter(
          "goalrec_library_load_total",
          {{"format", "snapshot"}, {"result", "ok"}});
  const int64_t before = snapshot_ok->Value();
  LoadReport snap_report;
  util::StatusOr<std::shared_ptr<const LibrarySnapshot>> reloaded =
      LoadLibrarySnapshot(snap, {}, {}, &snap_report);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(snap_report.records_loaded, 2u);
  EXPECT_EQ(snap_report.issues_total, 0u);
  if (obs::kObsEnabled) {
    EXPECT_EQ(snapshot_ok->Value(), before + 1);
  }
  std::remove(text.c_str());
  std::remove(snap.c_str());
}

// ---- Validated loading: strict vs quarantine, provenance, caps. ----

void WriteTextFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::trunc);
  out << contents;
}

TEST(LibraryIoValidationTest, StrictModeFailsWithLineProvenance) {
  std::string path = TempPath("goalrec_lib_strict.txt");
  WriteTextFile(path,
                "# goalrec-library v1\n"
                "g1\ta1\ta2\n"
                "lonely_goal_no_actions\n"
                "g2\ta3\n");
  util::StatusOr<ImplementationLibrary> loaded = LoadLibraryText(path);
  ASSERT_FALSE(loaded.ok());
  // The error names the file, the 1-based line, and the offending token.
  EXPECT_NE(loaded.status().message().find(path + ":3:"), std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("lonely_goal_no_actions"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(LibraryIoValidationTest, QuarantineModeDropsBadRecordsKeepsGood) {
  std::string path = TempPath("goalrec_lib_quarantine.txt");
  WriteTextFile(path,
                "# goalrec-library v1\n"
                "g1\ta1\ta2\n"
                "bad_record_no_actions\n"
                "g2\ta3\n"
                "\ta4\ta5\n"  // empty goal name
                "g3\ta1\ta3\n");
  LoadOptions options;
  options.mode = ValidationMode::kQuarantine;
  LoadReport report;
  util::StatusOr<ImplementationLibrary> loaded =
      LoadLibraryText(path, options, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_implementations(), 3u);
  EXPECT_EQ(report.records_total, 5u);
  EXPECT_EQ(report.records_loaded, 3u);
  EXPECT_EQ(report.records_quarantined, 2u);
  EXPECT_EQ(report.issues_total, 2u);
  ASSERT_EQ(report.issues.size(), 2u);
  EXPECT_EQ(report.issues[0].file, path);
  EXPECT_EQ(report.issues[0].line, 3u);
  EXPECT_NE(report.issues[0].ToString().find(path + ":3:"),
            std::string::npos);
  EXPECT_EQ(report.issues[1].line, 5u);
  // Summary is loggable and mentions the quarantine count.
  EXPECT_NE(report.Summary().find("2 quarantined"), std::string::npos)
      << report.Summary();
  std::remove(path.c_str());
}

TEST(LibraryIoValidationTest, IssueListIsCappedButCountIsNot) {
  std::string path = TempPath("goalrec_lib_capped_issues.txt");
  std::string contents = "# goalrec-library v1\n";
  for (int i = 0; i < 10; ++i) contents += "bad_record_" + std::to_string(i) + "\n";
  contents += "g1\ta1\ta2\n";
  WriteTextFile(path, contents);
  LoadOptions options;
  options.mode = ValidationMode::kQuarantine;
  options.max_reported_issues = 3;
  LoadReport report;
  util::StatusOr<ImplementationLibrary> loaded =
      LoadLibraryText(path, options, &report);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(report.issues.size(), 3u);     // stored: capped
  EXPECT_EQ(report.issues_total, 10u);     // counted: all of them
  EXPECT_EQ(loaded->num_implementations(), 1u);
  std::remove(path.c_str());
}

TEST(LibraryIoValidationTest, DuplicateRecordsReportedAndOptionallyDropped) {
  std::string path = TempPath("goalrec_lib_dupes.txt");
  WriteTextFile(path,
                "# goalrec-library v1\n"
                "g1\ta1\ta2\n"
                "g2\ta3\n"
                "g1\ta2\ta1\n");  // same goal + action set, reordered
  LoadReport report;
  util::StatusOr<ImplementationLibrary> kept =
      LoadLibraryText(path, LoadOptions{}, &report);
  ASSERT_TRUE(kept.ok());
  // Duplicates are legal by default (multiplicity is a real signal the
  // strategies exploit); they are reported, not dropped.
  EXPECT_EQ(kept->num_implementations(), 3u);
  EXPECT_EQ(report.duplicates, 1u);

  LoadOptions drop;
  drop.drop_duplicates = true;
  LoadReport drop_report;
  util::StatusOr<ImplementationLibrary> deduped =
      LoadLibraryText(path, drop, &drop_report);
  ASSERT_TRUE(deduped.ok());
  EXPECT_EQ(deduped->num_implementations(), 2u);
  EXPECT_EQ(drop_report.duplicates, 1u);
  EXPECT_EQ(drop_report.records_quarantined, 1u);
  std::remove(path.c_str());
}

TEST(LibraryIoValidationTest, HardCapsRejectInBothModes) {
  std::string path = TempPath("goalrec_lib_caps.txt");
  WriteTextFile(path,
                "# goalrec-library v1\n"
                "g1\ta1\n"
                "g2\ta2\n"
                "g3\ta3\n");
  LoadOptions options;
  options.limits.max_implementations = 2;
  for (ValidationMode mode : {ValidationMode::kStrict,
                              ValidationMode::kQuarantine}) {
    options.mode = mode;
    util::StatusOr<ImplementationLibrary> loaded =
        LoadLibraryText(path, options);
    ASSERT_FALSE(loaded.ok());
    // Caps are resource protection, not data quality: quarantine mode must
    // NOT soak up an adversarial flood record by record.
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kResourceExhausted);
  }
  std::remove(path.c_str());
}

TEST(LibraryIoValidationTest, OversizedActionSetQuarantined) {
  std::string path = TempPath("goalrec_lib_wide.txt");
  std::string wide = "g_wide";
  for (int i = 0; i < 20; ++i) wide += "\tw" + std::to_string(i);
  WriteTextFile(path, "# goalrec-library v1\n" + wide + "\ng1\ta1\n");
  LoadOptions options;
  options.limits.max_actions_per_impl = 8;
  options.mode = ValidationMode::kQuarantine;
  LoadReport report;
  util::StatusOr<ImplementationLibrary> loaded =
      LoadLibraryText(path, options, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_implementations(), 1u);
  EXPECT_EQ(report.records_quarantined, 1u);

  options.mode = ValidationMode::kStrict;
  EXPECT_FALSE(LoadLibraryText(path, options).ok());
  std::remove(path.c_str());
}

TEST(LibraryIoValidationTest, FileSizeCapRejectsOversizedFile) {
  std::string path = TempPath("goalrec_lib_big.txt");
  ASSERT_TRUE(SaveLibraryText(PaperLibrary(), path).ok());
  LoadOptions options;
  options.limits.max_file_bytes = 10;
  util::StatusOr<ImplementationLibrary> loaded =
      LoadLibraryText(path, options);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kResourceExhausted);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace goalrec::model
