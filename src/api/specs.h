// The versioned Keddah Spec API (wire format v1).
//
// The toolchain's spec structs (core::CaptureSpec / ReproduceSpec /
// ValidateSpec, core::ScenarioSpec) are the programmatic entry points; this
// layer gives every one of them a single JSON wire schema plus the matching
// response documents, so the batch CLI (`keddah run-scenario --json`), the
// `keddah serve` daemon (/v1/whatif, /v1/reproduce, /v1/validate), and the
// test suites all speak — and can be diffed against — exactly one format.
//
// Design rules:
//   - Every document carries {"api": "v1"}; parsers reject other versions
//     so a v2 can change the schema without silent misreads.
//   - Documents are read through util::JsonReader: parse failures throw
//     SpecError naming the source document and the JSON key path of the
//     offending value, so a 400 response can point at
//     "scenario.jobs[2].input" rather than "bad request".
//   - Serialization is deterministic (util::Json sorts object keys, numbers
//     render via one fixed format), which is what makes "batch CLI output
//     == daemon response body" a testable bit-identity.
#pragma once

#include <string>

#include "keddah/compare.h"
#include "keddah/scenario.h"
#include "keddah/toolchain.h"
#include "util/json.h"
#include "util/json_reader.h"

namespace keddah::api {

/// Wire-format major version. Bump on any incompatible schema change.
inline constexpr int kApiVersion = 1;
inline constexpr const char* kApiVersionString = core::kSpecVersion;

/// A field-level request defect: which document, which JSON key path, what
/// is wrong, and (optionally) how to fix it. what() renders the lint-style
/// line "file: key: message (hint)". Every spec parser throws this one
/// shape (util/json_reader.h).
using SpecError = util::SpecError;

// ---------------------------------------------------------------- specs
// JSON ⇄ toolchain spec structs. Parsers take the source name (`file`) and
// the key path of the object being parsed (for nested use); serializers
// round-trip through the parsers.

/// {"workload": "sort", "input_sizes": ["1GB", ...], "repetitions": 2,
///  "seed": 42, "threads": 0, "faults": [...]}
core::CaptureSpec parse_capture_spec(const util::Json& doc, const std::string& file,
                                     const std::string& key = "");
util::Json capture_spec_to_json(const core::CaptureSpec& spec);

/// {"scenario": {"input": "8GB", "hosts": 16, "maps": 0, "reducers": 0},
///  "seed": 1, "normalize_volume": false}
core::ReproduceSpec parse_reproduce_spec(const util::Json& doc, const std::string& file,
                                         const std::string& key = "");
util::Json reproduce_spec_to_json(const core::ReproduceSpec& spec);

/// {"seed": 1, "repetitions": 3, "threads": 0, "normalize_volume": false}
core::ValidateSpec parse_validate_spec(const util::Json& doc, const std::string& file,
                                       const std::string& key = "");
util::Json validate_spec_to_json(const core::ValidateSpec& spec);

// ------------------------------------------------------------- requests

/// /v1/whatif request: a scenario document (exactly the schema of
/// examples/scenarios/*.json — a scenario file IS a valid request body).
struct WhatIfRequest {
  core::ScenarioSpec scenario;
};
WhatIfRequest parse_whatif_request(const util::Json& doc, const std::string& file);
/// Collecting form: every defect lands in `diagnostics` (keddah-lint's
/// findings for the body) and nothing throws.
WhatIfRequest parse_whatif_request(const util::Json& doc, util::Diagnostics& diagnostics);

/// /v1/reproduce request: sample `model` for a scenario and replay it on a
/// cluster fabric.
///   {"api": "v1", "model": "sort",
///    "scenario": {"input": "8GB", "hosts": 16}, "seed": 1,
///    "normalize_volume": false, "cluster": { ... scenario cluster ... }}
struct ReproduceRequest {
  /// Model-bank key; resolution is the caller's job (the daemon holds the
  /// bank, the batch CLI loads a file).
  std::string model;
  core::ReproduceSpec spec;
  hadoop::ClusterConfig cluster;
};
ReproduceRequest parse_reproduce_request(const util::Json& doc, const std::string& file);
util::Json reproduce_request_to_json(const ReproduceRequest& request);

/// /v1/validate request: reproduce a saved reference run under `model` and
/// compare against it.
///   {"api": "v1", "model": "sort", "run": "runs/sort_0",
///    "seed": 1, "repetitions": 3, "cluster": { ... }}
struct ValidateRequest {
  std::string model;
  /// Basename of a run persisted by core::save_run, resolved on the side
  /// that executes (the daemon's filesystem for /v1/validate).
  std::string run;
  core::ValidateSpec spec;
  hadoop::ClusterConfig cluster;
};
ValidateRequest parse_validate_request(const util::Json& doc, const std::string& file);
util::Json validate_request_to_json(const ValidateRequest& request);

// ------------------------------------------------------------ responses
// Deterministic response documents; the daemon's 200 bodies are exactly
// to_body(x_response(...)) and the batch CLI prints the same bytes.

util::Json whatif_response(const core::ScenarioOutcome& outcome);
util::Json reproduce_response(const core::ReproduceResult& result);
util::Json validate_response(const core::ValidationReport& report);

/// The canonical serialized form of an API document: two-space pretty print
/// plus a trailing newline.
std::string to_body(const util::Json& doc);

}  // namespace keddah::api
