#pragma once
// coca-ckpt-v2: controller crash/restart serialization.
//
// A checkpoint is a single-line JSON document rendered with obs/json's
// std::to_chars number formatting.  Shortest-round-trip rendering means every
// double survives serialize -> parse *bitwise*, which is what makes
// restore-then-run bit-identical to an uninterrupted run (pinned by
// tests/fault_checkpoint_test.cpp).  Envelope:
//
//   {"schema":"coca-ckpt-v2","controller":"<name>","slot":N, ...state...}
//
// Controller state fields:
//   COCA               "queue":{"q":<double>}
//   COCA+dynamic-RECs  the queue plus "ledger":{"purchased":..,"retired":..},
//                      "spend":<double>
//
// A blob is constant-size: it holds the controller's cross-slot state and no
// per-slot record.  q(t) is all the past that COCA reads (Eq. 17 updates it
// and P3 weighs energy by it), and the dynamic-REC policy adds only its
// running ledger and spend totals.  The V schedule carries no state on
// purpose: V_r is a pure function of the slot index and the (immutable)
// controller config, so a restored controller re-derives it from t alone.
// Blobs never leave the process that wrote them, so parse_checkpoint accepts
// the current schema only.

#include <cstddef>
#include <string>

#include "core/deficit_queue.hpp"
#include "obs/json.hpp"

namespace coca::core {

inline constexpr const char* kCheckpointSchema = "coca-ckpt-v2";

/// Render the deficit-queue state as a JSON object: {"q":..}.
std::string queue_to_json(const CarbonDeficitQueue& queue);

/// Restore deficit-queue state from a parsed `queue` fragment; throws
/// std::runtime_error on a malformed fragment and std::invalid_argument on a
/// negative or non-finite q, leaving `queue` unchanged either way.
void queue_from_json(const obs::JsonValue& fragment, CarbonDeficitQueue& queue);

/// Assemble the envelope around already-rendered state fields.
/// `state_fields` must be either empty or a comma-led field list, e.g.
/// `,"queue":{...}`.
std::string render_checkpoint(const std::string& controller,
                              std::size_t upto_slot,
                              const std::string& state_fields);

/// Parse a blob and validate schema + controller name; returns the document.
/// Throws std::runtime_error on malformed JSON or a mismatched envelope.
obs::JsonValue parse_checkpoint(const std::string& blob,
                                const std::string& expected_controller);

}  // namespace coca::core
