#include "webdb/probe_key.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <tuple>
#include <vector>

namespace aimq {
namespace {

// Operand kinds of a term's head word.
enum TermKind : uint64_t {
  kCodeTerm = 0,  // dictionary code, held in the head word's low 32 bits
  kNullTerm = 1,  // null operand
  kNumTerm = 2,   // double bit pattern in the next word
  kStrTerm = 3,   // string bytes in the following words
};

// Attribute field of a predicate on an attribute the schema does not name;
// the name's bytes follow the operand.
constexpr uint64_t kUnknownAttr = 0xFFFFFF;

// Head word: attribute (24 bits) | operator (4) | kind (4) | code (32).
// Attribute-major, so ascending heads order terms by (attribute, operator).
uint64_t Head(uint64_t attr, CompareOp op, TermKind kind, ValueId code = 0) {
  return (std::min(attr, kUnknownAttr) << 40) |
         (static_cast<uint64_t>(op) << 36) | (kind << 32) | code;
}

// One predicate before sorting.
struct Term {
  uint64_t head = 0;
  uint64_t payload = 0;    // kNumTerm: double bits
  std::string_view str;    // kStrTerm operand
  std::string_view name;   // unknown attribute

  bool operator<(const Term& other) const {
    return std::tie(head, payload, str, name) <
           std::tie(other.head, other.payload, other.str, other.name);
  }
};

}  // namespace

ProbeKey::Builder::Builder(const ColumnarRelation& cols) {
  Push(cols.lineage_uid());
}

void ProbeKey::Builder::AddCode(size_t attr, CompareOp op, ValueId code) {
  Push(Head(attr, op, kCodeTerm, code));
}

void ProbeKey::Builder::AddNum(size_t attr, CompareOp op, double value) {
  Push(Head(attr, op, kNumTerm));
  Push(std::bit_cast<uint64_t>(value));
}

void ProbeKey::Builder::Push(uint64_t word) {
  ProbeKey& k = key_;
  if (k.size_ == k.capacity_) {
    const uint32_t capacity = k.capacity_ * 2;
    uint64_t* grown = new uint64_t[capacity];
    std::memcpy(grown, k.words(), k.size_ * sizeof(uint64_t));
    if (k.heap()) delete[] k.heap_;
    k.heap_ = grown;
    k.capacity_ = capacity;
  }
  k.mutable_words()[k.size_++] = word;
}

void ProbeKey::Builder::PushBytes(std::string_view bytes) {
  Push(bytes.size());
  for (size_t i = 0; i < bytes.size(); i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, std::min<size_t>(8, bytes.size() - i));
    Push(word);
  }
}

ProbeKey ProbeKey::Builder::Finish() && {
  uint64_t h = 0x243f6a8885a308d3ULL ^ key_.size_;
  const uint64_t* w = key_.words();
  for (uint32_t i = 0; i < key_.size_; ++i) {
    h ^= w[i];
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  key_.hash_ = static_cast<size_t>(h);
  return std::move(key_);
}

ProbeKey ProbeKey::ForQuery(const ColumnarRelation& cols,
                            const SelectionQuery& query) {
  std::vector<Term> terms;
  terms.reserve(query.NumPredicates());
  for (const Predicate& p : query.predicates()) {
    Term t;
    uint64_t attr = kUnknownAttr;
    if (auto index = cols.schema().IndexOf(p.attribute); index.ok()) {
      attr = index.ValueOrDie();
    } else {
      t.name = p.attribute;  // rejected at execution; key on the raw name
    }
    if (p.value.is_null()) {
      t.head = Head(attr, p.op, kNullTerm);
    } else {
      const ValueId code = p.op == CompareOp::kEq && attr != kUnknownAttr
                               ? cols.dict(attr).Lookup(p.value)
                               : ValueDict::kAbsentCode;
      if (code != ValueDict::kAbsentCode) {
        t.head = Head(attr, p.op, kCodeTerm, code);
      } else if (p.value.is_numeric()) {
        t.head = Head(attr, p.op, kNumTerm);
        t.payload = std::bit_cast<uint64_t>(p.value.AsNum());
      } else {
        t.head = Head(attr, p.op, kStrTerm);
        t.str = p.value.AsCat();
      }
    }
    terms.push_back(t);
  }
  std::sort(terms.begin(), terms.end());

  Builder b(cols);
  for (const Term& t : terms) {
    b.Push(t.head);
    const uint64_t kind = (t.head >> 32) & 0xF;
    if (kind == kNumTerm) b.Push(t.payload);
    if (kind == kStrTerm) b.PushBytes(t.str);
    if ((t.head >> 40) == kUnknownAttr) b.PushBytes(t.name);
  }
  return std::move(b).Finish();
}

ProbeKey::ProbeKey(const ProbeKey& other) { CopyFrom(other); }

ProbeKey::ProbeKey(ProbeKey&& other) noexcept { MoveFrom(&other); }

ProbeKey& ProbeKey::operator=(const ProbeKey& other) {
  if (this != &other) {
    Release();
    CopyFrom(other);
  }
  return *this;
}

ProbeKey& ProbeKey::operator=(ProbeKey&& other) noexcept {
  if (this != &other) {
    Release();
    MoveFrom(&other);
  }
  return *this;
}

ProbeKey::~ProbeKey() { Release(); }

bool ProbeKey::operator==(const ProbeKey& other) const {
  return hash_ == other.hash_ && size_ == other.size_ &&
         std::memcmp(words(), other.words(), size_ * sizeof(uint64_t)) == 0;
}

void ProbeKey::CopyFrom(const ProbeKey& other) {
  size_ = other.size_;
  hash_ = other.hash_;
  capacity_ = std::max<uint32_t>(kInlineWords, size_);
  if (heap()) heap_ = new uint64_t[capacity_];
  std::memcpy(mutable_words(), other.words(), size_ * sizeof(uint64_t));
}

void ProbeKey::MoveFrom(ProbeKey* other) {
  size_ = other->size_;
  capacity_ = other->capacity_;
  hash_ = other->hash_;
  if (other->heap()) {
    heap_ = other->heap_;  // steal the buffer; other reverts to empty inline
    other->capacity_ = kInlineWords;
    other->size_ = 0;
  } else {
    std::memcpy(inline_, other->inline_, size_ * sizeof(uint64_t));
  }
}

void ProbeKey::Release() {
  if (heap()) delete[] heap_;
  capacity_ = kInlineWords;
  size_ = 0;
}

}  // namespace aimq
