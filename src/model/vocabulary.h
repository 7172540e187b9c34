#ifndef GOALREC_MODEL_VOCABULARY_H_
#define GOALREC_MODEL_VOCABULARY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

// String-interning table mapping external names to dense ids. Instances back
// the paper's A-idx (action dictionary) and G-idx (goal dictionary).
//
// Copies share names. Share() freezes the names interned so far into an
// immutable, reference-counted prefix; every copy made after that points at
// the same prefix and owns only the names it interns itself. A library's
// vocabularies are shared once when it is built (LibraryRowWriter), so the
// delta fold, MakeSnapshot, the shard split and LibraryBuilder::FromLibrary
// copy a pointer plus the few names a delta added, not the whole dictionary.
// Ids, Name, Find and Intern behave exactly as for a never-copied table.

namespace goalrec::model {

class Vocabulary {
 public:
  Vocabulary() = default;
  Vocabulary(const Vocabulary&) = default;
  Vocabulary& operator=(const Vocabulary&) = default;
  /// A moved-from vocabulary is empty, as a moved-from table always was.
  Vocabulary(Vocabulary&& other) noexcept;
  Vocabulary& operator=(Vocabulary&& other) noexcept;

  /// Returns the id of `name`, interning it if unseen. Ids are assigned
  /// densely in first-seen order starting from 0. Heterogeneous lookup: the
  /// probe never constructs a temporary std::string — a copy is made only
  /// when the name is genuinely new.
  uint32_t Intern(std::string_view name);

  /// Returns the id of `name` if already interned. Like Intern, the lookup
  /// is allocation-free.
  std::optional<uint32_t> Find(std::string_view name) const;

  /// Pre-sizes both the name table and the id map for `n` entries. The
  /// loaders call this with the file's cardinality so bulk interning does
  /// not rehash/reallocate its way up.
  void Reserve(size_t n);

  /// Returns the name for `id`. Requires id < size(). The reference stays
  /// valid while this vocabulary, or any copy sharing the name, lives.
  const std::string& Name(uint32_t id) const;

  /// Freezes the names this vocabulary owns into the shared prefix, so
  /// later copies share them instead of copying them. A no-op when a prefix
  /// is already shared (the names interned since stay owned) or when the
  /// vocabulary is empty.
  void Share();

  uint32_t size() const { return shared_size_ + own_size(); }
  bool empty() const { return size() == 0; }

 private:
  // Heterogeneous (string_view) lookup: Find takes no temporary-allocation
  // hit, which matters when resolving large activity CSVs.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  struct Table {
    std::vector<std::string> names;
    std::unordered_map<std::string, uint32_t, StringHash, std::equal_to<>>
        ids;
  };

  uint32_t own_size() const { return static_cast<uint32_t>(own_.names.size()); }

  // Ids [0, shared_size_) live in the immutable prefix, the rest in own_.
  std::shared_ptr<const Table> shared_;
  uint32_t shared_size_ = 0;
  Table own_;
};

}  // namespace goalrec::model

#endif  // GOALREC_MODEL_VOCABULARY_H_
