#ifndef GOALREC_TEXTMINE_EXTRACTOR_H_
#define GOALREC_TEXTMINE_EXTRACTOR_H_

#include <string>
#include <string_view>
#include <vector>

#include "model/library.h"
#include "textmine/aliases.h"

// Action identification over user-generated goal stories: each document is a
// plain-text description of how its author fulfilled a goal ("I stopped
// eating at restaurants. Then I started to drink more water..."); the
// extractor segments it into steps, strips narration, and canonicalises each
// step into a short action phrase. One document becomes one goal
// implementation; a corpus becomes an implementation library whose action
// vocabulary is shared across documents (the dedup that makes associations
// emerge).

namespace goalrec::textmine {

struct HowToDocument {
  std::string goal;  // e.g. "lose weight"
  std::string text;  // free-form description of the steps taken
};

struct ExtractorOptions {
  /// Maximum content words kept per action phrase.
  size_t max_phrase_words = 4;
  /// Stem the words of each phrase (textmine/normalize.h) so inflected
  /// retellings ("drinking more water" / "drink more water") dedup onto one
  /// action. Off by default: stems are not display-friendly.
  bool stem_words = false;
  /// Optional canonicalisation table applied to each extracted phrase
  /// (after stemming). Must outlive the extraction call.
  const AliasMap* aliases = nullptr;
};

/// Canonical action phrase of one step: leading narration cues ("first",
/// "then", personal pronouns, auxiliaries like "started to") are dropped and
/// the first `max_phrase_words` content words are joined with spaces.
/// Returns "" when nothing actionable remains.
std::string ExtractActionPhrase(std::string_view step,
                                const ExtractorOptions& options = {});

/// All distinct action phrases of a document, in first-occurrence order.
std::vector<std::string> ExtractActions(const HowToDocument& document,
                                        const ExtractorOptions& options = {});

/// Builds an implementation library from a corpus: one implementation per
/// document with at least one extracted action. Goal names are lowercased
/// and trimmed so retellings of the same goal share a goal id.
model::ImplementationLibrary BuildLibraryFromDocuments(
    const std::vector<HowToDocument>& documents,
    const ExtractorOptions& options = {});

}  // namespace goalrec::textmine

#endif  // GOALREC_TEXTMINE_EXTRACTOR_H_
