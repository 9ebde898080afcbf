//! Core BGP data types shared by every crate in this workspace.
//!
//! This crate models the on-the-wire and analytical vocabulary of BGP as used
//! by the IMC 2023 paper *"Coarse-grained Inference of BGP Community Intent"*:
//!
//! * [`Asn`] — autonomous system numbers, including the 16-bit/32-bit split
//!   and the private/reserved ranges the inference method must exclude.
//! * [`Prefix`] — IPv4/IPv6 CIDR prefixes with canonical (masked) form.
//! * [`Community`] — regular 32-bit communities (RFC 1997) in `α:β` form,
//!   plus [`LargeCommunity`] (RFC 8092) and [`ExtendedCommunity`] (RFC 5668).
//! * [`AsPath`] — AS paths with `AS_SEQUENCE`/`AS_SET` segments, prepending,
//!   and the on-path membership tests the inference method is built on.
//! * [`Announcement`] / [`RouteAttrs`] — a parsed route with its attributes.
//! * [`Intent`] — the action/information label that the whole pipeline exists
//!   to infer.
//!
//! A few small shared utilities also live here so every crate agrees on
//! them: [`fx`] — the FxHash-style hasher used for analysis-side hot maps —
//! [`par`] — thread-count resolution plus the deterministic fork-join
//! helper behind every parallel stage — [`obs`] — the zero-dependency
//! observability layer (metrics registry, structured spans) every pipeline
//! stage reports into — and [`persist`] — the sealed envelope, typed load
//! error and durable atomic write (temp file, fsync, rename, directory
//! fsync) every on-disk format uses. The analysis pipeline's columnar
//! [`store::ObservationStore`] (interned paths/community sets, flat ID
//! columns) lives here too so both `mrt` ingestion and `core` reduction
//! can speak it without a dependency cycle.
//!
//! All types are plain data: no I/O outside [`persist`], no global state,
//! and `serde` support so dictionaries and inferences can be released as
//! data supplements like the paper's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asn;
pub mod aspath;
pub mod community;
pub mod error;
pub mod fx;
pub mod intent;
pub mod obs;
pub mod observation;
pub mod par;
pub mod persist;
pub mod prefix;
pub mod route;
pub mod store;

pub use asn::Asn;
pub use aspath::{AsPath, AsPathView, PathSegment};
pub use community::{Community, ExtendedCommunity, LargeCommunity};
pub use error::ParseError;
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use intent::Intent;
pub use obs::{MetricsRegistry, MetricsSnapshot, Telemetry, TraceSink, Tracer};
pub use observation::Observation;
pub use par::{effective_threads, par_map_indexed};
pub use prefix::Prefix;
pub use route::{Announcement, Origin, RouteAttrs};
pub use store::{ObservationSink, ObservationStore, ObservationView};
