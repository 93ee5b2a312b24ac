#include "net/payloads.hpp"

#include <array>
#include <utility>

namespace hyflow::net {

namespace {
struct NameVisitor {
  const char* operator()(const FindOwnerRequest&) const { return "FindOwnerRequest"; }
  const char* operator()(const FindOwnerResponse&) const { return "FindOwnerResponse"; }
  const char* operator()(const RegisterOwnerRequest&) const { return "RegisterOwnerRequest"; }
  const char* operator()(const RegisterOwnerResponse&) const { return "RegisterOwnerResponse"; }
  const char* operator()(const ObjectRequest&) const { return "ObjectRequest"; }
  const char* operator()(const ObjectResponse&) const { return "ObjectResponse"; }
  const char* operator()(const NotInterested&) const { return "NotInterested"; }
  const char* operator()(const LockRequest&) const { return "LockRequest"; }
  const char* operator()(const LockResponse&) const { return "LockResponse"; }
  const char* operator()(const ValidateRequest&) const { return "ValidateRequest"; }
  const char* operator()(const ValidateResponse&) const { return "ValidateResponse"; }
  const char* operator()(const CommitRequest&) const { return "CommitRequest"; }
  const char* operator()(const CommitResponse&) const { return "CommitResponse"; }
  const char* operator()(const AbortUnlock&) const { return "AbortUnlock"; }
  const char* operator()(const GrantAck&) const { return "GrantAck"; }
  const char* operator()(const Ack&) const { return "Ack"; }
};

struct SizeVisitor {
  // Control messages cost a fixed small frame; object-bearing messages add
  // the object's wire size. Only transport statistics consume this.
  std::size_t operator()(const ObjectResponse& r) const {
    return 48 + (r.object ? r.object->wire_size() : 0);
  }
  std::size_t operator()(const CommitResponse& r) const {
    return 32 + r.queue.size() * 32;
  }
  template <typename T>
  std::size_t operator()(const T&) const {
    return 32;
  }
};
}  // namespace

const char* payload_name(const Payload& p) { return std::visit(NameVisitor{}, p); }

const char* payload_name_at(std::size_t index) {
  static const auto names = []<std::size_t... I>(std::index_sequence<I...>) {
    return std::array<const char*, kPayloadKinds>{
        payload_name(Payload(std::in_place_index<I>))...};
  }(std::make_index_sequence<kPayloadKinds>{});
  return index < names.size() ? names[index] : "?";
}

std::size_t payload_wire_size(const Payload& p) { return std::visit(SizeVisitor{}, p); }

}  // namespace hyflow::net
