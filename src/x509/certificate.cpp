#include "ctwatch/x509/certificate.hpp"

#include <algorithm>
#include <stdexcept>

#include "ctwatch/crypto/sha256.hpp"
#include "ctwatch/x509/oids.hpp"

namespace ctwatch::x509 {

namespace {

Bytes encode_rdn(const asn1::Oid& oid, const Bytes& encoded_value) {
  return asn1::encode_set_of({asn1::encode_sequence({asn1::encode_oid(oid), encoded_value})});
}

// AlgorithmIdentifier for a signature scheme.
Bytes encode_sig_alg(crypto::SignatureScheme scheme) {
  switch (scheme) {
    case crypto::SignatureScheme::ecdsa_p256_sha256:
      return asn1::encode_sequence({asn1::encode_oid(oids::ecdsa_with_sha256())});
    case crypto::SignatureScheme::hmac_sha256_simulated:
      return asn1::encode_sequence({asn1::encode_oid(oids::simulated_signature())});
  }
  throw std::invalid_argument("encode_sig_alg: unknown scheme");
}

crypto::SignatureScheme decode_sig_alg(BytesView der) {
  asn1::Parser parser(der);
  const asn1::Tlv seq = parser.expect(asn1::kTagSequence);
  asn1::Parser inner(seq.value);
  const asn1::Oid oid = asn1::decode_oid(inner.expect(asn1::kTagOid));
  if (oid == oids::ecdsa_with_sha256()) return crypto::SignatureScheme::ecdsa_p256_sha256;
  if (oid == oids::simulated_signature()) return crypto::SignatureScheme::hmac_sha256_simulated;
  throw std::invalid_argument("decode_sig_alg: unknown algorithm " + oid.to_string());
}

Bytes encode_spki(crypto::SignatureScheme scheme, BytesView public_key) {
  std::vector<Bytes> alg;
  switch (scheme) {
    case crypto::SignatureScheme::ecdsa_p256_sha256:
      alg = {asn1::encode_oid(oids::ec_public_key()), asn1::encode_oid(oids::p256())};
      break;
    case crypto::SignatureScheme::hmac_sha256_simulated:
      alg = {asn1::encode_oid(oids::simulated_signature())};
      break;
  }
  return asn1::encode_sequence({asn1::encode_sequence(alg), asn1::encode_bit_string(public_key)});
}

void decode_spki(BytesView der, crypto::SignatureScheme& scheme, Bytes& public_key) {
  asn1::Parser parser(der);
  asn1::Parser spki(parser.expect(asn1::kTagSequence).value);
  const asn1::Tlv alg = spki.expect(asn1::kTagSequence);
  asn1::Parser alg_parser(alg.value);
  const asn1::Oid oid = asn1::decode_oid(alg_parser.expect(asn1::kTagOid));
  if (oid == oids::ec_public_key()) {
    scheme = crypto::SignatureScheme::ecdsa_p256_sha256;
  } else if (oid == oids::simulated_signature()) {
    scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  } else {
    throw std::invalid_argument("decode_spki: unknown key algorithm " + oid.to_string());
  }
  const BytesView key = asn1::decode_bit_string(spki.expect(asn1::kTagBitString));
  public_key.assign(key.begin(), key.end());
}

void append(Bytes& out, BytesView der) { out.insert(out.end(), der.begin(), der.end()); }

Bytes encode_extension(const Extension& ext) {
  std::vector<Bytes> parts;
  parts.push_back(asn1::encode_oid(ext.oid));
  if (ext.critical) parts.push_back(asn1::encode_boolean(true));  // DEFAULT FALSE omitted
  parts.push_back(asn1::encode_octet_string(ext.value));
  return asn1::encode_sequence(parts);
}

Extension decode_extension(const asn1::Tlv& tlv) {
  if (tlv.tag != asn1::kTagSequence) throw std::invalid_argument("extension: not a SEQUENCE");
  asn1::Parser parser(tlv.value);
  Extension ext;
  ext.oid = asn1::decode_oid(parser.expect(asn1::kTagOid));
  if (parser.peek_tag() == asn1::kTagBoolean) {
    ext.critical = asn1::decode_boolean(parser.next());
  }
  const asn1::Tlv value = parser.expect(asn1::kTagOctetString);
  ext.value.assign(value.value.begin(), value.value.end());
  return ext;
}

}  // namespace

Bytes DistinguishedName::encode() const {
  std::vector<Bytes> rdns;
  if (!country.empty()) {
    rdns.push_back(encode_rdn(oids::country(), asn1::encode_printable_string(country)));
  }
  if (!organization.empty()) {
    rdns.push_back(encode_rdn(oids::organization(), asn1::encode_utf8_string(organization)));
  }
  if (!common_name.empty()) {
    rdns.push_back(encode_rdn(oids::common_name(), asn1::encode_utf8_string(common_name)));
  }
  return asn1::encode_sequence(rdns);
}

DistinguishedName DistinguishedName::decode(BytesView der_name) {
  asn1::Parser parser(der_name);
  asn1::Parser rdns(parser.expect(asn1::kTagSequence).value);
  DistinguishedName dn;
  while (!rdns.done()) {
    asn1::Parser set(rdns.expect(asn1::kTagSet).value);
    asn1::Parser atv(set.expect(asn1::kTagSequence).value);
    const asn1::Oid oid = asn1::decode_oid(atv.expect(asn1::kTagOid));
    const std::string value = asn1::decode_string(atv.next());
    if (oid == oids::common_name()) {
      dn.common_name = value;
    } else if (oid == oids::organization()) {
      dn.organization = value;
    } else if (oid == oids::country()) {
      dn.country = value;
    }
    // Unknown attributes are ignored.
  }
  return dn;
}

Bytes encode_san_value(const std::vector<SanEntry>& entries) {
  std::vector<Bytes> names;
  for (const SanEntry& entry : entries) {
    switch (entry.kind) {
      case SanEntry::Kind::dns:
        names.push_back(asn1::tlv(asn1::context_tag(2, false), to_bytes(entry.dns_name)));
        break;
      case SanEntry::Kind::ip: {
        const std::uint32_t v = entry.ip.value();
        const std::uint8_t raw[4] = {static_cast<std::uint8_t>(v >> 24),
                                     static_cast<std::uint8_t>(v >> 16),
                                     static_cast<std::uint8_t>(v >> 8),
                                     static_cast<std::uint8_t>(v)};
        names.push_back(asn1::tlv(asn1::context_tag(7, false), BytesView{raw, 4}));
        break;
      }
    }
  }
  return asn1::encode_sequence(names);
}

std::vector<SanEntry> decode_san_value(BytesView value) {
  asn1::Parser parser(value);
  asn1::Parser names(parser.expect(asn1::kTagSequence).value);
  std::vector<SanEntry> out;
  while (!names.done()) {
    const asn1::Tlv name = names.next();
    if (name.tag == asn1::context_tag(2, false)) {
      out.push_back(SanEntry::dns(to_string(name.value)));
    } else if (name.tag == asn1::context_tag(7, false)) {
      if (name.value.size() != 4) continue;  // IPv6 SANs are not modeled
      out.push_back(SanEntry::address(
          net::IPv4(name.value[0], name.value[1], name.value[2], name.value[3])));
    }
    // Other GeneralName choices ignored.
  }
  return out;
}

Bytes TbsCertificate::encode() const {
  std::vector<Bytes> fields;
  fields.push_back(asn1::encode_explicit(0, asn1::encode_integer(2)));  // v3
  fields.push_back(asn1::encode_integer_unsigned(serial));
  fields.push_back(encode_sig_alg(key_scheme));
  fields.push_back(issuer.encode());
  fields.push_back(
      asn1::encode_sequence({asn1::encode_utc_time(not_before), asn1::encode_utc_time(not_after)}));
  fields.push_back(subject.encode());
  fields.push_back(encode_spki(key_scheme, public_key));
  if (!extensions.empty()) {
    std::vector<Bytes> exts;
    exts.reserve(extensions.size());
    for (const Extension& ext : extensions) exts.push_back(encode_extension(ext));
    fields.push_back(asn1::encode_explicit(3, asn1::encode_sequence(exts)));
  }
  return asn1::encode_sequence(fields);
}

TbsCertificate TbsCertificate::decode(BytesView der) {
  asn1::Parser outer(der);
  asn1::Parser parser(outer.expect(asn1::kTagSequence).value);
  TbsCertificate tbs;

  const asn1::Tlv version = parser.expect(asn1::context_tag(0, true));
  {
    asn1::Parser v(version.value);
    if (asn1::decode_integer(v.expect(asn1::kTagInteger)) != 2) {
      throw std::invalid_argument("TbsCertificate: only v3 supported");
    }
  }
  tbs.serial = asn1::decode_integer_unsigned(parser.expect(asn1::kTagInteger));
  const asn1::Tlv sig_alg = parser.expect(asn1::kTagSequence);
  (void)decode_sig_alg(sig_alg.raw);  // validated; key_scheme comes from the SPKI
  tbs.issuer = DistinguishedName::decode(parser.expect(asn1::kTagSequence).raw);
  {
    asn1::Parser validity(parser.expect(asn1::kTagSequence).value);
    tbs.not_before = asn1::decode_time(validity.next());
    tbs.not_after = asn1::decode_time(validity.next());
  }
  tbs.subject = DistinguishedName::decode(parser.expect(asn1::kTagSequence).raw);
  decode_spki(parser.expect(asn1::kTagSequence).raw, tbs.key_scheme, tbs.public_key);
  if (!parser.done() && parser.peek_tag() == asn1::context_tag(3, true)) {
    asn1::Parser wrapper(parser.next().value);
    asn1::Parser exts(wrapper.expect(asn1::kTagSequence).value);
    while (!exts.done()) tbs.extensions.push_back(decode_extension(exts.next()));
  }
  return tbs;
}

const Extension* TbsCertificate::find_extension(const asn1::Oid& oid) const {
  for (const Extension& ext : extensions) {
    if (ext.oid == oid) return &ext;
  }
  return nullptr;
}

std::size_t TbsCertificate::remove_extension(const asn1::Oid& oid) {
  const auto it = std::remove_if(extensions.begin(), extensions.end(),
                                 [&](const Extension& e) { return e.oid == oid; });
  const auto removed = static_cast<std::size_t>(extensions.end() - it);
  extensions.erase(it, extensions.end());
  return removed;
}

std::vector<SanEntry> TbsCertificate::san_entries() const {
  const Extension* san = find_extension(oids::subject_alt_name());
  if (san == nullptr) return {};
  return decode_san_value(san->value);
}

std::vector<std::string> TbsCertificate::dns_names() const {
  std::vector<std::string> out;
  auto push_unique = [&out](const std::string& name) {
    if (std::find(out.begin(), out.end(), name) == out.end()) out.push_back(name);
  };
  if (!subject.common_name.empty() && subject.common_name.find('.') != std::string::npos &&
      subject.common_name.find(' ') == std::string::npos) {
    push_unique(subject.common_name);
  }
  for (const SanEntry& entry : san_entries()) {
    if (entry.kind == SanEntry::Kind::dns) push_unique(entry.dns_name);
  }
  return out;
}

Bytes encode_certificate(BytesView tbs_der, const crypto::SignatureBlob& signature) {
  return asn1::encode_sequence({Bytes(tbs_der.begin(), tbs_der.end()),
                                encode_sig_alg(signature.scheme),
                                asn1::encode_bit_string(signature.data)});
}

Bytes Certificate::encode() const { return encode_certificate(tbs.encode(), signature); }

Certificate Certificate::decode(BytesView der) {
  asn1::Parser outer(der);
  asn1::Parser parser(outer.expect(asn1::kTagSequence).value);
  Certificate cert;
  const asn1::Tlv tbs = parser.expect(asn1::kTagSequence);
  cert.tbs = TbsCertificate::decode(tbs.raw);
  cert.signature.scheme = decode_sig_alg(parser.expect(asn1::kTagSequence).raw);
  const BytesView sig = asn1::decode_bit_string(parser.expect(asn1::kTagBitString));
  cert.signature.data.assign(sig.begin(), sig.end());
  return cert;
}

crypto::Digest Certificate::fingerprint() const { return crypto::Sha256::hash(encode()); }

bool Certificate::is_precertificate() const { return tbs.has_extension(oids::ct_poison()); }

std::optional<Bytes> Certificate::sct_list_value() const {
  const Extension* ext = tbs.find_extension(oids::ct_sct_list());
  if (ext == nullptr) return std::nullopt;
  return ext->value;
}

bool Certificate::verify(BytesView issuer_public_key) const {
  return crypto::verify_signature(issuer_public_key, tbs.encode(), signature);
}

Bytes precert_tbs_bytes(const TbsCertificate& tbs) {
  TbsCertificate stripped = tbs;
  stripped.remove_extension(oids::ct_poison());
  stripped.remove_extension(oids::ct_sct_list());
  return stripped.encode();
}

TbsEncoder::TbsEncoder(TbsCertificate shared)
    : shared_(std::move(shared)),
      sig_alg_(encode_sig_alg(shared_.key_scheme)),
      issuer_(shared_.issuer.encode()),
      spki_(encode_spki(shared_.key_scheme, shared_.public_key)) {
  extensions_.reserve(shared_.extensions.size());
  for (const Extension& ext : shared_.extensions) extensions_.push_back(encode_extension(ext));
}

PrecertTbsDer TbsEncoder::encode_precert(const TbsCertificate& tbs) const {
  // The fields before the extensions, in TbsCertificate::encode order.
  static const Bytes version = asn1::encode_explicit(0, asn1::encode_integer(2));  // v3
  Bytes fields = version;
  append(fields, asn1::encode_integer_unsigned(tbs.serial));
  // A shared field is appended from the template's bytes, without a copy.
  append(fields, tbs.key_scheme == shared_.key_scheme ? BytesView{sig_alg_}
                                                      : BytesView{encode_sig_alg(tbs.key_scheme)});
  append(fields,
         tbs.issuer == shared_.issuer ? BytesView{issuer_} : BytesView{tbs.issuer.encode()});
  append(fields, asn1::encode_sequence({asn1::encode_utc_time(tbs.not_before),
                                        asn1::encode_utc_time(tbs.not_after)}));
  append(fields, tbs.subject.encode());
  const bool shared_key =
      tbs.key_scheme == shared_.key_scheme && tbs.public_key == shared_.public_key;
  append(fields, shared_key ? BytesView{spki_}
                            : BytesView{encode_spki(tbs.key_scheme, tbs.public_key)});

  // Each extension once, into the full list and, unless it is the poison
  // or an SCT list, into the log's list.
  Bytes all_extensions;
  Bytes log_extensions;
  bool any_log_extension = false;
  for (const Extension& ext : tbs.extensions) {
    const auto shared = std::find(shared_.extensions.begin(), shared_.extensions.end(), ext);
    Bytes fresh;
    BytesView der;
    if (shared == shared_.extensions.end()) {
      fresh = encode_extension(ext);
      der = fresh;
    } else {
      der = extensions_[static_cast<std::size_t>(shared - shared_.extensions.begin())];
    }
    append(all_extensions, der);
    if (ext.oid != oids::ct_poison() && ext.oid != oids::ct_sct_list()) {
      append(log_extensions, der);
      any_log_extension = true;
    }
  }
  const auto assemble = [&fields](const Bytes& extensions, bool any) {
    if (!any) return asn1::tlv(asn1::kTagSequence, fields);
    Bytes body = fields;
    append(body, asn1::encode_explicit(3, asn1::tlv(asn1::kTagSequence, extensions)));
    return asn1::tlv(asn1::kTagSequence, body);
  };
  return PrecertTbsDer{assemble(all_extensions, !tbs.extensions.empty()),
                       assemble(log_extensions, any_log_extension)};
}

Bytes serial_bytes(std::uint64_t serial) {
  // Minimal big-endian magnitude, so struct equality survives the DER
  // round trip (the INTEGER encoding strips leading zeros).
  Bytes magnitude;
  for (int shift = 56; shift >= 0; shift -= 8) {
    const auto byte = static_cast<std::uint8_t>(serial >> shift);
    if (magnitude.empty() && byte == 0 && shift != 0) continue;
    magnitude.push_back(byte);
  }
  return magnitude;
}

CertificateBuilder& CertificateBuilder::serial(std::uint64_t serial) {
  tbs_.serial = serial_bytes(serial);
  return *this;
}

Bytes ecdsa_signature_to_der(const crypto::EcdsaSignature& sig) {
  return asn1::encode_sequence({asn1::encode_integer_unsigned(sig.r.to_bytes()),
                                asn1::encode_integer_unsigned(sig.s.to_bytes())});
}

crypto::EcdsaSignature ecdsa_signature_from_der(BytesView der) {
  asn1::Parser outer(der);
  asn1::Parser seq(outer.expect(asn1::kTagSequence).value);
  const Bytes r = asn1::decode_integer_unsigned(seq.expect(asn1::kTagInteger));
  const Bytes s = asn1::decode_integer_unsigned(seq.expect(asn1::kTagInteger));
  if (!seq.done() || !outer.done()) {
    throw std::invalid_argument("ecdsa_signature_from_der: trailing data");
  }
  if (r.size() > 32 || s.size() > 32) {
    throw std::invalid_argument("ecdsa_signature_from_der: integer too wide for P-256");
  }
  crypto::EcdsaSignature sig;
  sig.r = crypto::U256::from_bytes_truncated(r);
  sig.s = crypto::U256::from_bytes_truncated(s);
  return sig;
}

CertificateBuilder& CertificateBuilder::issuer(DistinguishedName dn) {
  tbs_.issuer = std::move(dn);
  return *this;
}

CertificateBuilder& CertificateBuilder::subject_cn(std::string cn) {
  tbs_.subject.common_name = std::move(cn);
  return *this;
}

CertificateBuilder& CertificateBuilder::validity(SimTime not_before, SimTime not_after) {
  tbs_.not_before = not_before;
  tbs_.not_after = not_after;
  return *this;
}

CertificateBuilder& CertificateBuilder::subject_key(const crypto::Signer& subject_signer) {
  tbs_.key_scheme = subject_signer.scheme();
  tbs_.public_key = subject_signer.public_key();
  return *this;
}

CertificateBuilder& CertificateBuilder::add_dns_san(std::string name) {
  sans_.push_back(SanEntry::dns(std::move(name)));
  return *this;
}

CertificateBuilder& CertificateBuilder::add_ip_san(net::IPv4 ip) {
  sans_.push_back(SanEntry::address(ip));
  return *this;
}

CertificateBuilder& CertificateBuilder::poison() {
  poison_ = true;
  return *this;
}

CertificateBuilder& CertificateBuilder::extension(Extension ext) {
  tbs_.add_extension(std::move(ext));
  return *this;
}

TbsCertificate CertificateBuilder::build_tbs() const {
  TbsCertificate tbs = tbs_;
  if (!sans_.empty()) {
    tbs.add_extension(Extension{oids::subject_alt_name(), false, encode_san_value(sans_)});
  }
  if (poison_) {
    tbs.add_extension(Extension{oids::ct_poison(), true, asn1::encode_null()});
  }
  if (tbs.public_key.empty()) {
    throw std::logic_error("CertificateBuilder: subject_key() not set");
  }
  return tbs;
}

Certificate CertificateBuilder::sign(const crypto::Signer& ca_signer) const {
  Certificate cert;
  cert.tbs = build_tbs();
  // The certificate's signature algorithm is the CA's scheme; the subject
  // key scheme may differ (a real-world mix the decoder tolerates).
  cert.signature = ca_signer.sign(cert.tbs.encode());
  return cert;
}

}  // namespace ctwatch::x509
