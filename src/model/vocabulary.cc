#include "model/vocabulary.h"

#include <utility>

#include "util/logging.h"

namespace goalrec::model {

Vocabulary::Vocabulary(Vocabulary&& other) noexcept
    : shared_(std::move(other.shared_)),
      shared_size_(std::exchange(other.shared_size_, 0)),
      own_(std::exchange(other.own_, Table())) {}

Vocabulary& Vocabulary::operator=(Vocabulary&& other) noexcept {
  shared_ = std::move(other.shared_);
  shared_size_ = std::exchange(other.shared_size_, 0);
  own_ = std::exchange(other.own_, Table());
  return *this;
}

uint32_t Vocabulary::Intern(std::string_view name) {
  if (std::optional<uint32_t> id = Find(name)) return *id;
  uint32_t id = size();
  own_.names.emplace_back(name);
  own_.ids.emplace(own_.names.back(), id);
  return id;
}

std::optional<uint32_t> Vocabulary::Find(std::string_view name) const {
  if (shared_ != nullptr) {
    auto it = shared_->ids.find(name);
    if (it != shared_->ids.end()) return it->second;
  }
  auto it = own_.ids.find(name);
  if (it == own_.ids.end()) return std::nullopt;
  return it->second;
}

void Vocabulary::Reserve(size_t n) {
  if (n <= shared_size_) return;
  own_.names.reserve(n - shared_size_);
  own_.ids.reserve(n - shared_size_);
}

const std::string& Vocabulary::Name(uint32_t id) const {
  GOALREC_CHECK_LT(id, size())
      << "name id " << id << " out of range (vocabulary has " << size()
      << " entries)";
  return id < shared_size_ ? shared_->names[id]
                           : own_.names[id - shared_size_];
}

void Vocabulary::Share() {
  if (shared_ != nullptr || own_.names.empty()) return;
  shared_size_ = own_size();
  shared_ = std::make_shared<const Table>(std::exchange(own_, Table()));
}

}  // namespace goalrec::model
