#include "textmine/extractor.h"

#include <array>

#include "textmine/normalize.h"
#include "textmine/tokenizer.h"
#include "util/string_utils.h"

namespace goalrec::textmine {
namespace {

// Narration cues that introduce a step without being part of the action.
bool IsNarrationCue(std::string_view word) {
  static constexpr std::array<std::string_view, 18> kCues = {
      "first",  "second", "third",   "next",    "then",   "finally",
      "later",  "also",   "after",   "before",  "now",    "today",
      "started", "start", "decided", "tried",   "began",  "managed"};
  for (std::string_view cue : kCues) {
    if (word == cue) return true;
  }
  return false;
}

}  // namespace

std::string ExtractActionPhrase(std::string_view step,
                                const ExtractorOptions& options) {
  std::vector<std::string> tokens = Tokenize(step);
  std::vector<std::string> phrase;
  for (const std::string& token : tokens) {
    if (phrase.size() >= options.max_phrase_words) break;
    if (IsStopword(token)) continue;
    // Cues only gate the *start* of the phrase; once the action has begun,
    // a word like "start" may be part of it ("start running").
    if (phrase.empty() && IsNarrationCue(token)) continue;
    phrase.push_back(token);
  }
  if (phrase.empty()) return "";  // narration only: no content words
  std::string joined = util::Join(phrase, " ");
  if (options.stem_words) joined = StemPhrase(joined);
  if (options.aliases != nullptr) return options.aliases->Resolve(joined);
  return joined;
}

std::vector<std::string> ExtractActions(const HowToDocument& document,
                                        const ExtractorOptions& options) {
  std::vector<std::string> actions;
  for (const std::string& step : SplitSteps(document.text)) {
    std::string phrase = ExtractActionPhrase(step, options);
    if (phrase.empty()) continue;
    bool seen = false;
    for (const std::string& existing : actions) {
      if (existing == phrase) {
        seen = true;
        break;
      }
    }
    if (!seen) actions.push_back(std::move(phrase));
  }
  return actions;
}

model::ImplementationLibrary BuildLibraryFromDocuments(
    const std::vector<HowToDocument>& documents,
    const ExtractorOptions& options) {
  model::LibraryBuilder builder;
  for (const HowToDocument& document : documents) {
    std::vector<std::string> actions = ExtractActions(document, options);
    if (actions.empty()) continue;
    std::string goal = util::ToLower(util::Trim(document.goal));
    if (goal.empty()) continue;
    builder.AddImplementation(goal, actions);
  }
  return std::move(builder).Build();
}

}  // namespace goalrec::textmine
