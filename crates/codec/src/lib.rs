//! # unicore-codec
//!
//! A canonical DER (ASN.1 subset) encoder/decoder.
//!
//! The 1999 UNICORE system stored per-Vsite *resource pages* "in ASN1
//! format" (paper §5.4) and moved serialised Java objects (the AJO) between
//! components. This crate supplies that encoding substrate: a strict,
//! canonical, depth-limited DER implementation covering BOOLEAN, INTEGER,
//! OCTET STRING, UTF8String, NULL, ENUMERATED, SEQUENCE, SET and
//! context-specific constructed tags — everything the certificate format,
//! resource pages and AJO wire form need.
//!
//! Layering: [`DerWriter`] (one-pass emitter) and [`DerReader`] (borrowing
//! cursor) own every TLV rule. [`DerCodec`] types write and read themselves
//! through them directly; [`Value`] with [`encode()`]/[`decode()`] is the
//! dynamic model for hand-built structures and tests, a generic walk over
//! the same two primitives. No product code goes through it: it is the
//! reference model that `prop_stream_equiv` holds the streaming
//! primitives to.
//!
//! Strictness matters here: the decoder rejects non-minimal integers and
//! lengths, trailing bytes, and over-deep nesting, so a byte stream has
//! exactly one accepted encoding (required for signing certificate bodies).

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod decode;
pub mod encode;
pub mod error;
pub mod reader;
pub mod structure;
pub mod value;
pub mod writer;

pub use decode::{decode, MAX_DEPTH};
pub use encode::{encode, encoded_len};
pub use error::CodecError;
pub use reader::{require_ascending, DerReader};
pub use structure::DerCodec;
pub use value::{tag, Value};
pub use writer::DerWriter;
