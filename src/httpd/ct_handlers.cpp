#include "ctwatch/httpd/ct_handlers.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ctwatch/ct/log.hpp"
#include "ctwatch/ct/wire.hpp"
#include "ctwatch/httpd/json.hpp"
#include "ctwatch/obs/trace.hpp"
#include "ctwatch/util/encoding.hpp"

namespace ctwatch::httpd {

namespace {

std::string b64(BytesView data) { return base64_encode(data); }

/// Strict decimal u64 query parameter; nullopt when absent or malformed.
std::optional<std::uint64_t> param_u64(const Request& request, const std::string& name) {
  const auto raw = request.query_param(name);
  if (!raw || raw->empty() || raw->size() > 20) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : *raw) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

json::Value proof_json(const std::vector<crypto::Digest>& path, const char* key) {
  json::Array audit;
  audit.reserve(path.size());
  for (const crypto::Digest& node : path) audit.emplace_back(b64(node));
  json::Object out;
  out.emplace(key, json::Value(std::move(audit)));
  return json::Value(std::move(out));
}

json::Value sct_json(const ct::SignedCertificateTimestamp& sct) {
  Bytes sig;
  ct::wire::put_u8(sig, static_cast<std::uint8_t>(sct.signature.scheme));
  ct::wire::put_opaque16(sig, sct.signature.data);
  json::Object out;
  out.emplace("sct_version", json::Value(static_cast<double>(sct.version)));
  out.emplace("id", json::Value(b64(sct.log_id)));
  out.emplace("timestamp", json::Value(static_cast<double>(sct.timestamp_ms)));
  out.emplace("extensions", json::Value(b64(sct.extensions)));
  out.emplace("signature", json::Value(b64(sig)));
  return json::Value(std::move(out));
}

/// Parsed add-chain body: leaf certificate + issuer public key (from the
/// second chain element, when present).
struct ParsedChain {
  x509::Certificate leaf;
  Bytes issuer_public_key;
};

std::optional<ParsedChain> parse_chain_body(const std::string& body, std::size_t max_chain,
                                            std::string& error_detail) {
  const auto doc = json::parse(body);
  if (!doc || !doc->is_object()) {
    error_detail = "body is not a JSON object";
    return std::nullopt;
  }
  const json::Value* chain = doc->get("chain");
  if (chain == nullptr || !chain->is_array() || chain->as_array().empty()) {
    error_detail = "missing non-empty \"chain\" array";
    return std::nullopt;
  }
  if (chain->as_array().size() > max_chain) {
    error_detail = "chain too long";
    return std::nullopt;
  }
  std::vector<Bytes> ders;
  for (const json::Value& element : chain->as_array()) {
    if (!element.is_string()) {
      error_detail = "chain element is not a string";
      return std::nullopt;
    }
    auto der = try_base64_decode(element.as_string());
    if (!der) {
      error_detail = "chain element is not valid base64";
      return std::nullopt;
    }
    ders.push_back(*std::move(der));
  }
  ParsedChain out;
  try {
    out.leaf = x509::Certificate::decode(ders[0]);
    if (ders.size() > 1) {
      out.issuer_public_key = x509::Certificate::decode(ders[1]).tbs.public_key;
    }
  } catch (const std::exception& e) {
    error_detail = std::string("chain element is not a certificate: ") + e.what();
    return std::nullopt;
  }
  return out;
}

Response submit_status_response(ct::SubmitStatus status) {
  switch (status) {
    case ct::SubmitStatus::rejected_invalid:
      return error_response(400, "rejected_invalid", "chain did not verify");
    case ct::SubmitStatus::overloaded:
      return error_response(503, "overloaded", "submission queue full");
    case ct::SubmitStatus::shutdown:
      return error_response(503, "shutting_down", "log service is stopping");
    case ct::SubmitStatus::dropped:
      return error_response(503, "dropped", "submission lost at ingress (injected fault)");
    case ct::SubmitStatus::internal_error:
      return error_response(500, "internal_error", "signer failure");
    case ct::SubmitStatus::storage_error:
      return error_response(503, "storage_error", "durable commit failed; entry not integrated");
    case ct::SubmitStatus::ok:
      break;
  }
  return error_response(500, "internal_error", "unexpected submit status");
}

/// Shared add-chain / add-pre-chain plumbing; `pre` picks the entry kind.
void handle_add(logsvc::LogService& service, const CtApiOptions& options, bool pre,
                const Request& request, Completion done) {
  std::string detail;
  auto parsed = parse_chain_body(request.body, options.max_chain, detail);
  if (!parsed) {
    done(error_response(400, "bad_chain", detail));
    return;
  }
  // The completion runs on the sequencer thread once the batch seals;
  // `done` routes it back to the owning event loop (stale-safe).
  logsvc::CompletionFn completion = [done](const ct::SubmitResult& outcome) {
    if (outcome.status != ct::SubmitStatus::ok || !outcome.sct) {
      done(submit_status_response(outcome.status));
      return;
    }
    done(json_response(200, sct_json(*outcome.sct).dump()));
  };
  const SimTime now = options.clock();
  const ct::SubmitStatus status =
      pre ? service.submit_pre_chain(parsed->leaf, parsed->issuer_public_key, now,
                                     std::move(completion))
          : service.submit_chain(parsed->leaf, parsed->issuer_public_key, now,
                                 std::move(completion));
  if (status != ct::SubmitStatus::ok) {
    done(submit_status_response(status));
  }
}

/// Resolves the backing service for a request, answering 503 when the
/// selector declines. Every handler below goes through this, so the
/// per-request view decision covers the whole RFC 6962 surface.
logsvc::LogService* select_or_fail(const ViewSelector& select, const Request& request,
                                   const Completion& done) {
  logsvc::LogService* service = select(request);
  if (service == nullptr) {
    done(error_response(503, "no_backend", "no log view for this client"));
  }
  return service;
}

}  // namespace

void register_ct_api(Router& router, logsvc::LogService& service, CtApiOptions options) {
  register_ct_api(
      router, [&service](const Request&) { return &service; }, std::move(options));
}

void register_ct_api(Router& router, ViewSelector select, CtApiOptions options) {
  router.get("/ct/v1/get-sth", [select](const Request& request, Completion done) {
    logsvc::LogService* backend = select_or_fail(select, request, done);
    if (backend == nullptr) return;
    logsvc::LogService& service = *backend;
    const ct::SignedTreeHead sth = service.get_sth();
    Bytes sig;
    ct::wire::put_u8(sig, static_cast<std::uint8_t>(sth.signature.scheme));
    ct::wire::put_opaque16(sig, sth.signature.data);
    json::Object out;
    out.emplace("tree_size", json::Value(static_cast<double>(sth.tree_size)));
    out.emplace("timestamp", json::Value(static_cast<double>(sth.timestamp_ms)));
    out.emplace("sha256_root_hash", json::Value(b64(sth.root_hash)));
    out.emplace("tree_head_signature", json::Value(b64(sig)));
    done(json_response(200, json::Value(std::move(out)).dump()));
  });

  router.get("/ct/v1/get-sth-consistency", [select](const Request& request, Completion done) {
    logsvc::LogService* backend = select_or_fail(select, request, done);
    if (backend == nullptr) return;
    logsvc::LogService& service = *backend;
    const auto first = param_u64(request, "first");
    const auto second = param_u64(request, "second");
    if (!first || !second) {
      done(error_response(400, "bad_parameter", "first and second must be decimal tree sizes"));
      return;
    }
    try {
      done(json_response(
          200, proof_json(service.consistency_proof(*first, *second), "consistency").dump()));
    } catch (const std::out_of_range& e) {
      done(error_response(400, "bad_range", e.what()));
    }
  });

  router.get("/ct/v1/get-proof-by-hash", [select](const Request& request, Completion done) {
    logsvc::LogService* backend = select_or_fail(select, request, done);
    if (backend == nullptr) return;
    logsvc::LogService& service = *backend;
    const auto tree_size = param_u64(request, "tree_size");
    auto hash_b64 = request.query_param("hash");
    if (!tree_size || !hash_b64) {
      done(error_response(400, "bad_parameter", "hash and tree_size are required"));
      return;
    }
    // Clients that forget to percent-encode '+' get it back: base64
    // never contains a space, so the form-decoding ambiguity is safe to
    // reverse.
    std::replace(hash_b64->begin(), hash_b64->end(), ' ', '+');
    crypto::Digest leaf{};
    const auto raw = try_base64_decode(*hash_b64);
    if (!raw || raw->size() != leaf.size()) {
      done(error_response(400, "bad_hash", "hash is not base64 of a sha256 digest"));
      return;
    }
    std::copy(raw->begin(), raw->end(), leaf.begin());
    const auto index = service.leaf_index_of(leaf);
    if (!index || *index >= *tree_size) {
      done(error_response(404, "hash_not_found", "no such leaf in the requested tree"));
      return;
    }
    try {
      json::Value proof = proof_json(service.inclusion_proof(*index, *tree_size), "audit_path");
      json::Object out = proof.as_object();
      out.emplace("leaf_index", json::Value(static_cast<double>(*index)));
      done(json_response(200, json::Value(std::move(out)).dump()));
    } catch (const std::out_of_range& e) {
      done(error_response(400, "bad_range", e.what()));
    }
  });

  router.get("/ct/v1/get-entries", [select](const Request& request, Completion done) {
    logsvc::LogService* backend = select_or_fail(select, request, done);
    if (backend == nullptr) return;
    logsvc::LogService& service = *backend;
    const auto start = param_u64(request, "start");
    const auto end = param_u64(request, "end");
    if (!start || !end || *end < *start) {
      done(error_response(400, "bad_parameter", "start and end must satisfy start <= end"));
      return;
    }
    if (*start >= service.tree_size()) {
      done(error_response(400, "bad_range", "start is at or beyond the current tree size"));
      return;
    }
    // Inclusive [start, end] on the wire; the service clamps the window
    // to its max_get_entries and the published size (RFC 6962 lets a log
    // return fewer entries than requested).
    const std::uint64_t span = *end - *start;
    const std::uint64_t want = span == UINT64_MAX ? UINT64_MAX : span + 1;
    json::Array entries;
    for (const ct::LogEntry& record : service.get_entries(*start, want)) {
      json::Object entry;
      entry.emplace("leaf_input",
                    json::Value(b64(ct::merkle_leaf_bytes(record.timestamp_ms,
                                                          record.signed_entry))));
      entry.emplace("extra_data", json::Value(std::string()));
      entries.push_back(json::Value(std::move(entry)));
    }
    json::Object out;
    out.emplace("entries", json::Value(std::move(entries)));
    done(json_response(200, json::Value(std::move(out)).dump()));
  });

  router.post("/ct/v1/add-chain",
              [select, options](const Request& request, Completion done) {
                CTWATCH_SPAN("httpd.add_chain");
                logsvc::LogService* backend = select_or_fail(select, request, done);
                if (backend == nullptr) return;
                handle_add(*backend, options, /*pre=*/false, request, std::move(done));
              });

  router.post("/ct/v1/add-pre-chain",
              [select, options](const Request& request, Completion done) {
                CTWATCH_SPAN("httpd.add_pre_chain");
                logsvc::LogService* backend = select_or_fail(select, request, done);
                if (backend == nullptr) return;
                handle_add(*backend, options, /*pre=*/true, request, std::move(done));
              });
}

}  // namespace ctwatch::httpd
