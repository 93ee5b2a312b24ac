// Wire protocol of the D-STM: one struct per message kind, combined in a
// std::variant. Object state crosses the wire as an immutable snapshot
// (shared_ptr<const AbstractObject>) — the in-process stand-in for a
// serialised object graph.
//
// Protocol map (paper reference):
//   FindOwner*        — the CC protocol's "locate the object" step
//   ObjectRequest     — Alg. 2 Open_Object -> Alg. 3 Retrieve_Request
//   ObjectResponse    — Alg. 3/4 response (object | backoff | wrong owner)
//   NotInterested     — Alg. 4 "send a message to the object owner" when the
//                       requester's backoff already expired
//   Lock/Validate/Commit/AbortUnlock — TFA commit: lock write set, validate
//                       read set, register ownership, release
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "dsm/object.hpp"
#include "dsm/object_id.hpp"
#include "dsm/object_store.hpp"
#include "dsm/version.hpp"
#include "util/time.hpp"

namespace hyflow::net {

enum class AccessMode : std::uint8_t { kRead = 0, kWrite = 1 };

// The paper's ETS: start, request and expected-commit timestamps of the
// requesting transaction (§III-B), carried on every object request.
struct Ets {
  SimTime start = 0;
  SimTime request = 0;
  SimTime expected_commit = 0;
};

// ---- directory (home node tracks current owner) ----

struct FindOwnerRequest {
  ObjectId oid;
};

struct FindOwnerResponse {
  ObjectId oid;
  NodeId owner = kInvalidNode;
  bool known = false;
};

struct RegisterOwnerRequest {
  ObjectId oid;
  NodeId new_owner = kInvalidNode;
  std::uint64_t version_clock = 0;
};

struct RegisterOwnerResponse {
  ObjectId oid;
  bool ok = false;
};

// ---- object fetch (scheduler hook lives on this path) ----

struct ObjectRequest {
  ObjectId oid;
  TxnId txid;
  AccessMode mode = AccessMode::kRead;
  std::uint32_t requester_cl = 0;  // the paper's myCL
  Ets ets;
};

struct ObjectResponse {
  ObjectId oid;
  TxnId txid;                  // requester's transaction (echoed for routing)
  ObjectSnapshot object;       // null => not granted (aborted or enqueued)
  Version version;
  SimDuration backoff = 0;     // scheduler-assigned backoff (meaning depends on `enqueued`)
  std::uint32_t owner_cl = 0;  // local contention level of oid at the owner
  bool enqueued = false;       // true: parked, the object will be pushed later
  bool wrong_owner = false;    // stale directory entry: re-resolve and retry
  bool handoff = false;        // Alg. 4 queue hand-off: requester must GrantAck
};

struct NotInterested {
  ObjectId oid;
  TxnId txid;
  std::uint32_t hops = 0;  // forwards so far along hand-offs (< cluster size)
};

// ---- TFA commit protocol ----

struct LockRequest {
  ObjectId oid;
  TxnId txid;
  std::uint64_t expected_clock = 0;  // version the transaction read
};

// The owner's ObjectStore verdict, so a remote lock or validation maps to the
// same abort cause as a local one.
struct LockResponse {
  ObjectId oid;
  dsm::ObjectStore::LockResult result = dsm::ObjectStore::LockResult::kNotOwner;
};

struct ValidateRequest {
  ObjectId oid;
  std::uint64_t expected_clock = 0;
};

struct ValidateResponse {
  ObjectId oid;
  dsm::ObjectStore::ValidateResult result = dsm::ObjectStore::ValidateResult::kNotOwner;
};

// A requester parked in an object's scheduling list (Alg. 1 `Requester`,
// plus the routing information needed to answer its original request).
struct QueuedRequester {
  NodeId address = kInvalidNode;
  TxnId txid;
  std::uint64_t reply_msg_id = 0;  // msg_id of the parked ObjectRequest
  AccessMode mode = AccessMode::kRead;
  std::uint32_t contention = 0;    // CL recorded when enqueued
  // Policy-defined scheduling rank (lower = served first), carried across
  // ownership hand-offs so the inheriting scheduler keeps its order: Greedy
  // stores the requester's first-start timestamp (older = served first),
  // Karma the inverted accumulated work. FIFO policies leave it 0.
  std::uint64_t priority = 0;
};

struct CommitRequest {
  ObjectId oid;
  TxnId txid;
  Version new_version;
  NodeId new_owner = kInvalidNode;
};

// The old owner acknowledges the commit and hands over the scheduling list
// so the new owner can serve parked requesters with the fresh copy (Alg. 4).
struct CommitResponse {
  ObjectId oid;
  std::vector<QueuedRequester> queue;
};

struct AbortUnlock {  // release a lock taken by a doomed commit (acked: a
  ObjectId oid;       // lost release would wedge the object forever)
  TxnId txid;
};

// Requester confirms it consumed an Alg. 4 grant; until this arrives the
// granting owner keeps the requester queued and re-forwards on timeout, so a
// dropped grant cannot leak the object.
struct GrantAck {
  ObjectId oid;
  TxnId txid;
};

// Generic acknowledgement for one-way-turned-reliable messages (AbortUnlock).
struct Ack {
  ObjectId oid;
};

using Payload =
    std::variant<FindOwnerRequest, FindOwnerResponse, RegisterOwnerRequest,
                 RegisterOwnerResponse, ObjectRequest, ObjectResponse, NotInterested,
                 LockRequest, LockResponse, ValidateRequest, ValidateResponse,
                 CommitRequest, CommitResponse, AbortUnlock, GrantAck, Ack>;

inline constexpr std::size_t kPayloadKinds = std::variant_size_v<Payload>;

const char* payload_name(const Payload& p);
// The name of the Payload alternative at `index` (Payload::index()).
const char* payload_name_at(std::size_t index);
std::size_t payload_wire_size(const Payload& p);

}  // namespace hyflow::net
