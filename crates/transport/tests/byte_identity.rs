//! Byte-identity pins for the key agreement and the handshake.
//!
//! The bignum kernel, the Diffie-Hellman group context and the session
//! cache may compute the same values faster; they may not compute other
//! values. For seeds {1, 7, 23} this file pins, as SHA-256 digests,
//!
//! - the public value `DhEphemeral::generate` derives from the seed's
//!   random draws, and what `agree` returns against one fixed peer value;
//! - through `client_handshake` / `server_handshake` over a `wire_pair`,
//!   the master secret and the DER of the ticket the client's cache holds
//!   after one full and then one resumed handshake (the ticket's binder is
//!   an HMAC under the master over the session id, the certificate
//!   fingerprint, the times and the epoch, so it covers RSA key generation,
//!   both signatures, both DH values and the key schedule).
//!
//! The digests were recorded from the code as it stood before any of that
//! was touched. A change that moves one of them changed the protocol's
//! bytes for a seed: that is a protocol change, not an optimisation.

use std::sync::Arc;
use unicore_certs::{
    CertificateAuthority, DistinguishedName, Identity, KeyUsage, TrustStore, Validity,
};
use unicore_codec::DerCodec;
use unicore_crypto::{sha256, BigUint, CryptoRng, DhEphemeral, DhGroup};
use unicore_simnet::wire_pair;
use unicore_transport::{client_handshake, server_handshake, Endpoint, SessionCache};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The fixed peer value: the 128 bytes `01 02 … 80`, which is below the
/// group prime (whose top byte is `ff`) and not a degenerate value.
fn fixed_peer() -> BigUint {
    let bytes: Vec<u8> = (1..=128u8).collect();
    BigUint::from_bytes_be(&bytes)
}

/// `(seed, sha256(public value), sha256(agree(fixed peer)))`.
const DH_PINS: [(u64, &str, &str); 3] = [
    (
        1,
        "0294764d3e3def6023af315ca657e76a69a6baff5a9e37dd6690dfd8f417a018",
        "7329de22f978ac43fdf3a789aee5b6fefd927fe97335919c63134ef8b0e46c1d",
    ),
    (
        7,
        "342da71b21aa65ab063f03f9baf632ba474168301d17e7cb26719b99e50540c7",
        "7d0ea589e23015a3ffade3be171fd0b72db60add7dc2cf97fb1f6cf88fec3026",
    ),
    (
        23,
        "8b71ef5ec4d03e0812d1415e722d92eb725e835cb5a2354b682d6e7a6fa4863a",
        "c6403bba8ffe87a4025e85a2d7a1768b1ae719ffe7402c223f69617a54b0ff83",
    ),
];

#[test]
fn dh_public_value_and_agreement_are_pinned_per_seed() {
    for (seed, public, shared) in DH_PINS {
        let mut rng = CryptoRng::from_u64(seed);
        let dh = DhEphemeral::generate(DhGroup::oakley_group2(), &mut rng);
        assert_eq!(
            hex(&sha256(&dh.public.to_bytes_be())),
            public,
            "public value, seed {seed}"
        );
        let agreed = dh.agree(&fixed_peer()).unwrap();
        assert_eq!(agreed.len(), 128, "fixed-width secret, seed {seed}");
        assert_eq!(hex(&sha256(&agreed)), shared, "agreement, seed {seed}");
    }
}

fn dn(cn: &str) -> DistinguishedName {
    DistinguishedName::new("DE", "FZJ", "ZAM", cn)
}

fn issue(
    ca: &mut CertificateAuthority,
    rng: &mut CryptoRng,
    cn: &str,
    usage: KeyUsage,
) -> Identity {
    ca.issue_identity(dn(cn), usage, Validity::starting_at(0, 10_000), rng)
        .unwrap()
}

/// One handshake on two threads; returns whether both ends resumed.
fn handshake(
    cep: &Endpoint,
    sep: &Endpoint,
    cc: &SessionCache,
    sc: &SessionCache,
    seed: u64,
) -> bool {
    let (cw, sw) = wire_pair();
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            let mut rng = CryptoRng::from_u64(seed).fork("server");
            server_handshake(sw, sep, sc, &mut rng)
        });
        let mut rng = CryptoRng::from_u64(seed).fork("client");
        let client = client_handshake(cw, cep, "FZJ", cc, &mut rng).unwrap();
        let server = server.join().unwrap().unwrap();
        assert_eq!(client.resumed(), server.resumed());
        client.resumed()
    })
}

/// `(seed, [(sha256(master), sha256(ticket DER)); after full, after resumed])`.
const HANDSHAKE_PINS: [(u64, [(&str, &str); 2]); 3] = [
    (
        1,
        [
            (
                "7aec3bda44429761b2692c4314672a2164099d03ba7af05955327cbebb9ff048",
                "db12d456f8743653cacb2722b58f05afe45331b6be46d3e3b83198248c157808",
            ),
            (
                "7aec3bda44429761b2692c4314672a2164099d03ba7af05955327cbebb9ff048",
                "f42ae29932ada5fac94b03d3bd9d2caffdd5045f425740464dc27c06fbcbeeae",
            ),
        ],
    ),
    (
        7,
        [
            (
                "7a6e40295f4c18e2727bd5bb9c199a57056a63c58d04b3ddcfe52e408b6630bb",
                "3b46b4b77198f3ceed774c42b1a376bb11522dbcfc60f50c324da3b38a7602bb",
            ),
            (
                "7a6e40295f4c18e2727bd5bb9c199a57056a63c58d04b3ddcfe52e408b6630bb",
                "5a9c62bb0730565c84d57dfe44592785e6c590568d3c8c00e190fa3d788612cd",
            ),
        ],
    ),
    (
        23,
        [
            (
                "72be26ad57a908689fa5cff54d155a948087b6c714224bc66f4a678a1301e1ed",
                "64c47d093968e180a5f3ff976b8194511ef0efaf1edb9913d9ae85f07a48a047",
            ),
            (
                "72be26ad57a908689fa5cff54d155a948087b6c714224bc66f4a678a1301e1ed",
                "8b6a4dea360c7bf5c38e3ea7970405dfece48f33f902103436d91147780e4408",
            ),
        ],
    ),
];

#[test]
fn client_cache_master_and_ticket_are_pinned_per_seed() {
    for (seed, pins) in HANDSHAKE_PINS {
        let mut rng = CryptoRng::from_u64(seed);
        let mut ca = CertificateAuthority::new_root(
            dn("UNICORE CA"),
            Validity::starting_at(0, 100_000),
            512,
            &mut rng,
        );
        let mut trust = TrustStore::new();
        trust.add_anchor(ca.certificate().clone()).unwrap();
        let trust = Arc::new(trust);
        let user = issue(&mut ca, &mut rng, "alice", KeyUsage::user());
        let server = issue(&mut ca, &mut rng, "fzj-gateway", KeyUsage::server());
        let mut cep = Endpoint::new(user, trust.clone(), 100);
        let mut sep = Endpoint::new(server, trust, 100);
        let cc = SessionCache::new(8);
        let sc = SessionCache::new(8);

        // Connect 0 is the full handshake; connect 1 resumes it 50 s later,
        // so the rotated ticket is not the first one over again.
        for (connect, (master, ticket)) in pins.into_iter().enumerate() {
            cep.now = 100 + 50 * connect as u64;
            sep.now = cep.now;
            let resumed = handshake(&cep, &sep, &cc, &sc, seed * 100 + connect as u64);
            assert_eq!(resumed, connect == 1, "seed {seed}, connect {connect}");
            let held = cc.lookup_peer("FZJ").unwrap();
            assert_eq!(
                hex(&sha256(&held.master)),
                master,
                "master, seed {seed}, connect {connect}"
            );
            let der = held.ticket.as_ref().unwrap().to_der();
            assert_eq!(
                hex(&sha256(&der)),
                ticket,
                "ticket DER, seed {seed}, connect {connect}"
            );
        }
    }
}
