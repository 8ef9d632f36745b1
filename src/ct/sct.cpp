#include "ctwatch/ct/sct.hpp"

#include "ctwatch/ct/wire.hpp"
#include "ctwatch/x509/redaction.hpp"

namespace ctwatch::ct {

namespace {
constexpr std::uint8_t kSigTypeCertificateTimestamp = 0;
constexpr std::uint8_t kSigTypeTreeHash = 1;

void put_entry(Bytes& out, const SignedEntry& entry) {
  wire::put_u16(out, static_cast<std::uint16_t>(entry.type));
  if (entry.type == EntryType::precert_entry) {
    wire::put_bytes(out, BytesView{entry.issuer_key_hash.data(), entry.issuer_key_hash.size()});
  }
  wire::put_opaque24(out, entry.data);
}
}  // namespace

SignedEntry make_x509_entry(const x509::Certificate& cert) {
  SignedEntry entry;
  entry.type = EntryType::x509_entry;
  entry.data = cert.encode();
  return entry;
}

SignedEntry make_precert_entry(const x509::Certificate& cert, BytesView issuer_public_key) {
  SignedEntry entry;
  entry.type = EntryType::precert_entry;
  // Redacted certificates: the log signed the *redacted* names, so the
  // reconstruction must re-apply the redaction to the final certificate.
  entry.data = x509::uses_redaction(cert.tbs)
                   ? x509::precert_tbs_bytes(x509::redacted_tbs(cert.tbs))
                   : x509::precert_tbs_bytes(cert.tbs);
  entry.issuer_key_hash = crypto::Sha256::hash(issuer_public_key);
  return entry;
}

std::optional<EntryTbs> entry_tbs(const SignedEntry& entry) {
  if (entry.data.empty()) return std::nullopt;
  if (entry.type == EntryType::precert_entry) {
    return EntryTbs{x509::TbsCertificate::decode(entry.data), true};
  }
  return EntryTbs{x509::Certificate::decode(entry.data).tbs, false};
}

Bytes SignedCertificateTimestamp::serialize() const {
  Bytes out;
  wire::put_u8(out, version);
  wire::put_bytes(out, BytesView{log_id.data(), log_id.size()});
  wire::put_u64(out, timestamp_ms);
  wire::put_opaque16(out, extensions);
  wire::put_u8(out, static_cast<std::uint8_t>(signature.scheme));
  wire::put_opaque16(out, signature.data);
  return out;
}

SignedCertificateTimestamp SignedCertificateTimestamp::deserialize(BytesView data) {
  wire::Reader reader(data);
  SignedCertificateTimestamp sct;
  sct.version = reader.u8();
  const BytesView id = reader.bytes(32);
  std::copy(id.begin(), id.end(), sct.log_id.begin());
  sct.timestamp_ms = reader.u64();
  const BytesView ext = reader.opaque16();
  sct.extensions.assign(ext.begin(), ext.end());
  sct.signature.scheme = static_cast<crypto::SignatureScheme>(reader.u8());
  const BytesView sig = reader.opaque16();
  sct.signature.data.assign(sig.begin(), sig.end());
  if (!reader.done()) throw std::invalid_argument("SCT: trailing bytes");
  return sct;
}

Bytes sct_signing_input(const SignedCertificateTimestamp& sct, const SignedEntry& entry) {
  Bytes out;
  wire::put_u8(out, sct.version);
  wire::put_u8(out, kSigTypeCertificateTimestamp);
  wire::put_u64(out, sct.timestamp_ms);
  put_entry(out, entry);
  wire::put_opaque16(out, sct.extensions);
  return out;
}

SignedCertificateTimestamp sign_sct(const crypto::Signer& signer, const LogId& log_id,
                                    std::uint64_t timestamp_ms, const SignedEntry& entry) {
  SignedCertificateTimestamp unsigned_sct;
  unsigned_sct.timestamp_ms = timestamp_ms;
  return sign_sct(signer, log_id, timestamp_ms, sct_signing_input(unsigned_sct, entry));
}

SignedCertificateTimestamp sign_sct(const crypto::Signer& signer, const LogId& log_id,
                                    std::uint64_t timestamp_ms, BytesView signing_input) {
  SignedCertificateTimestamp sct;
  sct.log_id = log_id;
  sct.timestamp_ms = timestamp_ms;
  sct.signature = signer.sign(signing_input);
  return sct;
}

bool verify_sct(const SignedCertificateTimestamp& sct, const SignedEntry& entry,
                BytesView log_public_key) {
  return crypto::verify_signature(log_public_key, sct_signing_input(sct, entry), sct.signature);
}

Bytes serialize_sct_list(const std::vector<SignedCertificateTimestamp>& scts) {
  Bytes inner;
  for (const auto& sct : scts) {
    wire::put_opaque16(inner, sct.serialize());
  }
  Bytes out;
  wire::put_opaque16(out, inner);
  return out;
}

std::vector<SignedCertificateTimestamp> parse_sct_list(BytesView data) {
  wire::Reader outer(data);
  wire::Reader list(outer.opaque16());
  if (!outer.done()) throw std::invalid_argument("SCT list: trailing bytes");
  std::vector<SignedCertificateTimestamp> out;
  while (!list.done()) {
    out.push_back(SignedCertificateTimestamp::deserialize(list.opaque16()));
  }
  return out;
}

Bytes sth_signing_input(const SignedTreeHead& sth) {
  Bytes out;
  wire::put_u8(out, 0);  // v1
  wire::put_u8(out, kSigTypeTreeHash);
  wire::put_u64(out, sth.timestamp_ms);
  wire::put_u64(out, sth.tree_size);
  wire::put_bytes(out, BytesView{sth.root_hash.data(), sth.root_hash.size()});
  return out;
}

SignedTreeHead sign_sth(const crypto::Signer& signer, std::uint64_t tree_size,
                        std::uint64_t timestamp_ms, const crypto::Digest& root_hash) {
  SignedTreeHead sth;
  sth.tree_size = tree_size;
  sth.timestamp_ms = timestamp_ms;
  sth.root_hash = root_hash;
  sth.signature = signer.sign(sth_signing_input(sth));
  return sth;
}

bool verify_sth(const SignedTreeHead& sth, BytesView log_public_key) {
  return crypto::verify_signature(log_public_key, sth_signing_input(sth), sth.signature);
}

}  // namespace ctwatch::ct
