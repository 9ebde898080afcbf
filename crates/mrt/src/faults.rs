//! Deterministic fault injection for MRT byte streams.
//!
//! Real collector archives (RouteViews, RIPE RIS) contain truncated records,
//! unknown types, and malformed attributes; a pipeline that only ever sees
//! its own pristine output never exercises the paths that matter in
//! deployment. This module mutates a *clean* MRT stream with seeded,
//! composable corruptions so tests and benches can make robustness a
//! measured invariant: the same `(seed, rate, kinds)` triple always produces
//! the same damaged bytes.
//!
//! The injector is record-aware: it frames the clean stream first, then
//! damages a chosen fraction of records. Faults fall into two classes the
//! reader stack treats very differently:
//!
//! * **body-local** damage (unknown type/subtype, malformed body bytes) —
//!   the record stays well-framed, so [`crate::RecoveringReader`] skips it
//!   by its header length and continues;
//! * **framing** damage (mid-record truncation, corrupted length fields,
//!   interleaved garbage) — the byte position of the next record is lost,
//!   and the reader must scan forward to resynchronize.

/// One way to damage a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Cut the record short mid-body (framing damage: the stream loses
    /// alignment at this point).
    TruncateRecord,
    /// Flip one random bit somewhere in the 12-byte MRT header.
    HeaderBitFlip,
    /// Flip one random bit somewhere in the body.
    BodyBitFlip,
    /// Inflate the header length field beyond the actual body (framing
    /// damage: the reader swallows the next record(s) as body bytes).
    OversizeLength,
    /// Shrink the header length field below the actual body (framing
    /// damage: trailing body bytes look like a next header).
    UndersizeLength,
    /// Rewrite the MRT type to a value no implementation knows.
    UnknownType,
    /// Rewrite the subtype to a value no implementation knows.
    UnknownSubtype,
    /// Overwrite a small span of body bytes with garbage (typically lands
    /// in a path attribute).
    MalformedBody,
    /// Insert a run of random bytes *before* the record (framing damage:
    /// the reader must scan past the garbage to resync).
    GarbageInsert,
}

/// Every fault kind, for "throw the kitchen sink at it" configurations.
pub const ALL_FAULT_KINDS: &[FaultKind] = &[
    FaultKind::TruncateRecord,
    FaultKind::HeaderBitFlip,
    FaultKind::BodyBitFlip,
    FaultKind::OversizeLength,
    FaultKind::UndersizeLength,
    FaultKind::UnknownType,
    FaultKind::UnknownSubtype,
    FaultKind::MalformedBody,
    FaultKind::GarbageInsert,
];

/// The subset of [`ALL_FAULT_KINDS`] that keeps records well-framed, so a
/// reader skips each damaged record by its header length, with no resync.
pub const BODY_LOCAL_FAULT_KINDS: &[FaultKind] = &[
    FaultKind::BodyBitFlip,
    FaultKind::UnknownType,
    FaultKind::UnknownSubtype,
    FaultKind::MalformedBody,
];

/// Injection parameters. Identical configs over identical input produce
/// identical output.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for the injector's deterministic PRNG.
    pub seed: u64,
    /// Fraction of records to corrupt, `0.0..=1.0`. Any positive rate
    /// corrupts at least one record (when there is one).
    pub rate: f64,
    /// The fault kinds to draw from, uniformly. Empty means "inject
    /// nothing".
    pub kinds: Vec<FaultKind>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0xBADC_0FFE,
            rate: 0.01,
            kinds: ALL_FAULT_KINDS.to_vec(),
        }
    }
}

/// One corruption that was applied, for test assertions and reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppliedFault {
    /// Index of the damaged record in the clean stream's framing.
    pub record_index: usize,
    /// Byte offset of that record's header in the *clean* stream.
    pub clean_offset: usize,
    /// What was done to it.
    pub kind: FaultKind,
}

/// Everything an injection run did.
#[derive(Debug, Clone, Default)]
pub struct FaultLog {
    /// Applied faults in record order.
    pub applied: Vec<AppliedFault>,
}

impl FaultLog {
    /// Total number of corruptions applied.
    pub fn count(&self) -> usize {
        self.applied.len()
    }

    /// How many corruptions of one kind were applied.
    pub fn count_of(&self, kind: FaultKind) -> usize {
        self.applied.iter().filter(|f| f.kind == kind).count()
    }

    /// Whether any applied fault breaks framing (as opposed to damaging a
    /// single record body in place).
    pub fn breaks_framing(&self) -> bool {
        self.applied.iter().any(|f| {
            matches!(
                f.kind,
                FaultKind::TruncateRecord
                    | FaultKind::HeaderBitFlip
                    | FaultKind::OversizeLength
                    | FaultKind::UndersizeLength
                    | FaultKind::GarbageInsert
            )
        })
    }
}

/// SplitMix64: tiny, seedable, and stable across platforms — exactly what a
/// reproducible corruption schedule needs (and no extra dependency).
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw in `0..n` (modulo bias is irrelevant for fuzzing).
    fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

/// `(start, total_len)` of each record in a clean stream; stops at the first
/// frame that does not fit (the unframeable tail is passed through verbatim).
fn frame(clean: &[u8]) -> Vec<(usize, usize)> {
    let mut frames = Vec::new();
    let mut pos = 0;
    while clean.len() - pos >= 12 {
        let len = u32::from_be_bytes([
            clean[pos + 8],
            clean[pos + 9],
            clean[pos + 10],
            clean[pos + 11],
        ]) as usize;
        let total = 12 + len;
        if clean.len() - pos < total {
            break;
        }
        frames.push((pos, total));
        pos += total;
    }
    frames
}

/// A seeded, composable corrupter of MRT byte streams.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
}

impl FaultInjector {
    /// Build an injector from its config.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultInjector { cfg }
    }

    /// Corrupt `clean`, returning the damaged bytes and a log of what was
    /// done. The input is never modified; unselected records are copied
    /// verbatim.
    pub fn corrupt(&self, clean: &[u8]) -> (Vec<u8>, FaultLog) {
        let mut log = FaultLog::default();
        if self.cfg.kinds.is_empty() || self.cfg.rate <= 0.0 {
            return (clean.to_vec(), log);
        }
        let frames = frame(clean);
        if frames.is_empty() {
            return (clean.to_vec(), log);
        }

        let mut rng = SplitMix64::new(self.cfg.seed);
        let target = ((frames.len() as f64 * self.cfg.rate.min(1.0)).round() as usize)
            .clamp(1, frames.len());

        // Partial Fisher-Yates: pick `target` distinct victim records.
        let mut indices: Vec<usize> = (0..frames.len()).collect();
        for i in 0..target {
            let j = i + rng.below(indices.len() - i);
            indices.swap(i, j);
        }
        let mut victims = indices[..target].to_vec();
        victims.sort_unstable();

        let mut out = Vec::with_capacity(clean.len() + 64 * target);
        let mut victim_iter = victims.into_iter().peekable();
        for (idx, &(start, total)) in frames.iter().enumerate() {
            let record = &clean[start..start + total];
            if victim_iter.peek() == Some(&idx) {
                victim_iter.next();
                let kind = self.cfg.kinds[rng.below(self.cfg.kinds.len())];
                apply(kind, record, &mut out, &mut rng);
                log.applied.push(AppliedFault {
                    record_index: idx,
                    clean_offset: start,
                    kind,
                });
            } else {
                out.extend_from_slice(record);
            }
        }
        // Unframeable tail (normally empty for a clean stream).
        let framed_end = frames.last().map_or(0, |&(s, t)| s + t);
        out.extend_from_slice(&clean[framed_end..]);
        (out, log)
    }
}

/// Emit one damaged copy of `record` (12-byte header + body) into `out`.
fn apply(kind: FaultKind, record: &[u8], out: &mut Vec<u8>, rng: &mut SplitMix64) {
    let body_len = record.len() - 12;
    match kind {
        FaultKind::TruncateRecord => {
            // Keep at least the first byte, lose at least the last one.
            let cut = 1 + rng.below(record.len() - 1);
            out.extend_from_slice(&record[..cut]);
        }
        FaultKind::HeaderBitFlip => {
            let mut copy = record.to_vec();
            let byte = rng.below(12);
            copy[byte] ^= 1 << rng.below(8);
            out.extend_from_slice(&copy);
        }
        FaultKind::BodyBitFlip => {
            let mut copy = record.to_vec();
            if body_len > 0 {
                let byte = 12 + rng.below(body_len);
                copy[byte] ^= 1 << rng.below(8);
            } else {
                copy[rng.below(12)] ^= 1 << rng.below(8);
            }
            out.extend_from_slice(&copy);
        }
        FaultKind::OversizeLength => {
            let mut copy = record.to_vec();
            let inflated = (body_len as u32).saturating_add(1 + rng.below(4096) as u32);
            copy[8..12].copy_from_slice(&inflated.to_be_bytes());
            out.extend_from_slice(&copy);
        }
        FaultKind::UndersizeLength => {
            let mut copy = record.to_vec();
            let deflated = if body_len > 0 {
                rng.below(body_len) as u32
            } else {
                0
            };
            copy[8..12].copy_from_slice(&deflated.to_be_bytes());
            out.extend_from_slice(&copy);
        }
        FaultKind::UnknownType => {
            let mut copy = record.to_vec();
            let t = 60_000 + rng.below(5_000) as u16;
            copy[4..6].copy_from_slice(&t.to_be_bytes());
            out.extend_from_slice(&copy);
        }
        FaultKind::UnknownSubtype => {
            let mut copy = record.to_vec();
            let s = 60_000 + rng.below(5_000) as u16;
            copy[6..8].copy_from_slice(&s.to_be_bytes());
            out.extend_from_slice(&copy);
        }
        FaultKind::MalformedBody => {
            let mut copy = record.to_vec();
            if body_len > 0 {
                let span = (1 + rng.below(8)).min(body_len);
                let at = 12 + rng.below(body_len - span + 1);
                for b in &mut copy[at..at + span] {
                    *b = (rng.next_u64() & 0xFF) as u8;
                }
            }
            out.extend_from_slice(&copy);
        }
        FaultKind::GarbageInsert => {
            let n = 1 + rng.below(64);
            for _ in 0..n {
                out.push((rng.next_u64() & 0xFF) as u8);
            }
            out.extend_from_slice(record);
        }
    }
}

/// Transient-I/O fault parameters for [`FlakyReader`]. Identical configs
/// over an identical read sequence inject identical faults.
///
/// The three knobs model the transient failure classes a retrying reader
/// must absorb (they say nothing about the *bytes*, which stay intact):
///
/// * `interrupt_rate` — `ErrorKind::Interrupted` (`EINTR`): the classic
///   retry-immediately signal;
/// * `stall_rate` — `ErrorKind::TimedOut`: a storage stall that a one-shot
///   reader treats as fatal but a [`crate::retry::RetryingReader`] retries
///   with backoff;
/// * `short_read_rate` — the read returns fewer bytes than asked (legal,
///   but exercises every caller's partial-read handling).
#[derive(Debug, Clone)]
pub struct FlakyConfig {
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Probability a read call fails with `Interrupted`.
    pub interrupt_rate: f64,
    /// Probability a read call fails with `TimedOut`.
    pub stall_rate: f64,
    /// Probability a read call returns a short read.
    pub short_read_rate: f64,
}

impl Default for FlakyConfig {
    fn default() -> Self {
        FlakyConfig {
            seed: 0xF1A6_F1A6,
            interrupt_rate: 0.10,
            stall_rate: 0.05,
            short_read_rate: 0.25,
        }
    }
}

impl FlakyConfig {
    /// The same schedule under a different seed (per-file decorrelation in
    /// multi-file ingests).
    pub fn reseeded(&self, seed: u64) -> Self {
        FlakyConfig {
            seed,
            ..self.clone()
        }
    }
}

/// A `Read` adapter that injects seeded *transient* faults — interrupts,
/// stalls, short reads — without corrupting a single byte of the payload.
///
/// Complements the byte-level [`FaultInjector`]: that one damages *data* to
/// exercise the decoder's recovery, this one damages *delivery* to exercise
/// the retry layer. Every injected fault is counted so tests can assert the
/// schedule actually fired.
#[derive(Debug)]
pub struct FlakyReader<R> {
    inner: R,
    cfg: FlakyConfig,
    rng: SplitMix64,
    /// Transient errors injected so far.
    pub faults_injected: u64,
    /// Short reads served so far.
    pub short_reads: u64,
}

impl<R: std::io::Read> FlakyReader<R> {
    /// Wrap `inner` with the given fault schedule.
    pub fn new(inner: R, cfg: FlakyConfig) -> Self {
        let rng = SplitMix64::new(cfg.seed);
        FlakyReader {
            inner,
            cfg,
            rng,
            faults_injected: 0,
            short_reads: 0,
        }
    }

    /// Draw in `[0, 1)` from the fault schedule.
    fn unit(&mut self) -> f64 {
        (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl<R: std::io::Read> std::io::Read for FlakyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return self.inner.read(buf);
        }
        let draw = self.unit();
        if draw < self.cfg.interrupt_rate {
            self.faults_injected += 1;
            return Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "injected EINTR",
            ));
        }
        if draw < self.cfg.interrupt_rate + self.cfg.stall_rate {
            self.faults_injected += 1;
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "injected stall",
            ));
        }
        if draw < self.cfg.interrupt_rate + self.cfg.stall_rate + self.cfg.short_read_rate
            && buf.len() > 1
        {
            self.short_reads += 1;
            let cut = 1 + self.rng.below(buf.len() - 1);
            return self.inner.read(&mut buf[..cut]);
        }
        self.inner.read(buf)
    }
}

/// One way a *live stream* can misbehave, beyond what archived files show.
///
/// The five kinds split into two classes, mirrored by the two consumers
/// below:
///
/// * **payload faults** ([`StreamFaultKind::DuplicateDelivery`],
///   [`StreamFaultKind::CorruptBurst`]) change the delivered *bytes* and are
///   applied ahead of time by [`StreamFaultInjector::corrupt_delivery`], so a
///   batch reference run over the same damaged bytes sees exactly what the
///   daemon saw;
/// * **delivery faults** ([`StreamFaultKind::DisconnectMidFrame`],
///   [`StreamFaultKind::IndefiniteStall`],
///   [`StreamFaultKind::PartialFrame`]) interrupt *transport* without
///   touching a byte and are injected live by [`FaultyStream`] — after
///   reconnect-and-resume the delivered byte sequence is bit-identical to
///   the unfaulted one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamFaultKind {
    /// The connection drops with `ECONNRESET` partway through a record
    /// frame.
    DisconnectMidFrame,
    /// The connection stops making progress forever: every further read
    /// times out. Only the consumer's stall deadline gets the stream moving
    /// again (by abandoning the connection).
    IndefiniteStall,
    /// The peer delivers part of a frame and then closes cleanly (EOF
    /// mid-frame) — the classic half-written tail of a dying sender.
    PartialFrame,
    /// A span of already-delivered frames is delivered again, verbatim
    /// (replay after an ack was lost). Content-addressed folding must
    /// absorb the duplicates without double-counting.
    DuplicateDelivery,
    /// A burst of bytes inside the stream is overwritten with garbage,
    /// spanning record boundaries — the quarantine-and-resync path.
    CorruptBurst,
}

/// Every stream fault kind.
pub const ALL_STREAM_FAULT_KINDS: &[StreamFaultKind] = &[
    StreamFaultKind::DisconnectMidFrame,
    StreamFaultKind::IndefiniteStall,
    StreamFaultKind::PartialFrame,
    StreamFaultKind::DuplicateDelivery,
    StreamFaultKind::CorruptBurst,
];

/// The transport-interrupting subset, handled by [`FaultyStream`].
pub const DELIVERY_STREAM_FAULT_KINDS: &[StreamFaultKind] = &[
    StreamFaultKind::DisconnectMidFrame,
    StreamFaultKind::IndefiniteStall,
    StreamFaultKind::PartialFrame,
];

/// The byte-changing subset, handled by
/// [`StreamFaultInjector::corrupt_delivery`].
pub const PAYLOAD_STREAM_FAULT_KINDS: &[StreamFaultKind] = &[
    StreamFaultKind::DuplicateDelivery,
    StreamFaultKind::CorruptBurst,
];

/// Stream fault parameters. As with [`FaultConfig`], identical configs over
/// identical input produce identical faults.
#[derive(Debug, Clone)]
pub struct StreamFaultConfig {
    /// Seed for the deterministic schedule.
    pub seed: u64,
    /// For payload faults: fraction of frames hit. For delivery faults:
    /// probability that one fault fires on a given connection.
    pub rate: f64,
    /// Kinds to draw from. Consumers ignore kinds outside their class.
    pub kinds: Vec<StreamFaultKind>,
    /// Mean number of bytes a connection delivers before a delivery fault
    /// fires (the actual position is drawn uniformly in `1..=2*mean`).
    pub mean_fault_position: usize,
}

impl Default for StreamFaultConfig {
    fn default() -> Self {
        StreamFaultConfig {
            seed: 0x57E4_FA17,
            rate: 0.02,
            kinds: ALL_STREAM_FAULT_KINDS.to_vec(),
            mean_fault_position: 64 * 1024,
        }
    }
}

impl StreamFaultConfig {
    /// The same schedule under a different seed (per-connection
    /// decorrelation: reseed with `seed ^ connection_index`).
    pub fn reseeded(&self, seed: u64) -> Self {
        StreamFaultConfig {
            seed,
            ..self.clone()
        }
    }
}

/// One stream-level corruption that was applied to the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppliedStreamFault {
    /// Index of the first affected record in the clean stream's framing.
    pub record_index: usize,
    /// Byte offset of that record's header in the *clean* stream.
    pub clean_offset: usize,
    /// What was done.
    pub kind: StreamFaultKind,
}

/// Everything a payload-fault injection run did.
#[derive(Debug, Clone, Default)]
pub struct StreamFaultLog {
    /// Applied faults in record order.
    pub applied: Vec<AppliedStreamFault>,
}

impl StreamFaultLog {
    /// Total number of corruptions applied.
    pub fn count(&self) -> usize {
        self.applied.len()
    }

    /// How many corruptions of one kind were applied.
    pub fn count_of(&self, kind: StreamFaultKind) -> usize {
        self.applied.iter().filter(|f| f.kind == kind).count()
    }
}

/// Applies the *payload* stream faults (duplicate delivery, corrupt bursts)
/// to a clean byte stream ahead of time, so the damaged bytes can both be
/// served to the daemon and written to disk for a batch reference run.
#[derive(Debug, Clone)]
pub struct StreamFaultInjector {
    cfg: StreamFaultConfig,
}

impl StreamFaultInjector {
    /// Build an injector from its config.
    pub fn new(cfg: StreamFaultConfig) -> Self {
        StreamFaultInjector { cfg }
    }

    /// Damage `clean` with the payload fault kinds in the config
    /// (delivery-only kinds are skipped — they cannot be expressed as
    /// bytes). Duplicated spans are always whole frames, so a resilient
    /// decoder sees well-formed duplicate records; corrupt bursts overwrite
    /// bytes in place (stream length unchanged) so framing recovers at the
    /// next surviving record.
    pub fn corrupt_delivery(&self, clean: &[u8]) -> (Vec<u8>, StreamFaultLog) {
        let mut log = StreamFaultLog::default();
        let kinds: Vec<StreamFaultKind> = self
            .cfg
            .kinds
            .iter()
            .copied()
            .filter(|k| PAYLOAD_STREAM_FAULT_KINDS.contains(k))
            .collect();
        if kinds.is_empty() || self.cfg.rate <= 0.0 {
            return (clean.to_vec(), log);
        }
        let frames = frame(clean);
        if frames.is_empty() {
            return (clean.to_vec(), log);
        }

        let mut rng = SplitMix64::new(self.cfg.seed);
        let target = ((frames.len() as f64 * self.cfg.rate.min(1.0)).round() as usize)
            .clamp(1, frames.len());
        let mut indices: Vec<usize> = (0..frames.len()).collect();
        for i in 0..target {
            let j = i + rng.below(indices.len() - i);
            indices.swap(i, j);
        }
        let mut victims = indices[..target].to_vec();
        victims.sort_unstable();

        let mut out = Vec::with_capacity(clean.len() + 64 * target);
        let mut victim_iter = victims.into_iter().peekable();
        for (idx, &(start, total)) in frames.iter().enumerate() {
            let record = &clean[start..start + total];
            if victim_iter.peek() != Some(&idx) {
                out.extend_from_slice(record);
                continue;
            }
            victim_iter.next();
            let kind = kinds[rng.below(kinds.len())];
            match kind {
                StreamFaultKind::DuplicateDelivery => {
                    // Replay this frame plus up to two of its predecessors,
                    // verbatim and frame-aligned.
                    let back = rng.below(3).min(idx);
                    let (rstart, _) = frames[idx - back];
                    out.extend_from_slice(record);
                    out.extend_from_slice(&clean[rstart..start + total]);
                }
                StreamFaultKind::CorruptBurst => {
                    // Overwrite a span starting inside this frame; the span
                    // may run past the frame's end into its successors.
                    let mut copy = record.to_vec();
                    let at = rng.below(total);
                    let span = 8 + rng.below(89);
                    for off in 0..span.min(total - at) {
                        copy[at + off] = (rng.next_u64() & 0xFF) as u8;
                    }
                    out.extend_from_slice(&copy);
                }
                _ => unreachable!("delivery kinds filtered out above"),
            }
            log.applied.push(AppliedStreamFault {
                record_index: idx,
                clean_offset: start,
                kind,
            });
        }
        let framed_end = frames.last().map_or(0, |&(s, t)| s + t);
        out.extend_from_slice(&clean[framed_end..]);
        (out, log)
    }
}

/// What a [`FaultyStream`] is scheduled to do to its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlannedDeliveryFault {
    /// Deliver faithfully to EOF.
    None,
    /// At `at` delivered bytes, fail with `ECONNRESET`.
    Disconnect { at: u64 },
    /// At `at` delivered bytes, time out on every further read.
    Stall { at: u64 },
    /// At `at` delivered bytes, report clean EOF (mid-frame half-delivery).
    PartialEof { at: u64 },
}

/// A `Read` adapter injecting seeded *delivery* stream faults — disconnects,
/// indefinite stalls, partial-frame EOFs — on a single connection. Bytes
/// that are delivered are always faithful; a resuming consumer that
/// reconnects from its cursor reconstructs the exact clean sequence.
///
/// Payload faults in the config are ignored here (see
/// [`StreamFaultInjector`]); wrap each new connection with a
/// [`StreamFaultConfig::reseeded`] config to decorrelate schedules while
/// keeping the whole run deterministic.
#[derive(Debug)]
pub struct FaultyStream<R> {
    inner: R,
    plan: PlannedDeliveryFault,
    delivered: u64,
    /// Whether the planned fault has fired.
    pub fired: Option<StreamFaultKind>,
}

impl<R: std::io::Read> FaultyStream<R> {
    /// Wrap one connection's stream with the given schedule.
    pub fn new(inner: R, cfg: &StreamFaultConfig) -> Self {
        let mut rng = SplitMix64::new(cfg.seed);
        let kinds: Vec<StreamFaultKind> = cfg
            .kinds
            .iter()
            .copied()
            .filter(|k| DELIVERY_STREAM_FAULT_KINDS.contains(k))
            .collect();
        let draw = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let plan = if kinds.is_empty() || draw >= cfg.rate {
            PlannedDeliveryFault::None
        } else {
            let at = 1 + rng.below(2 * cfg.mean_fault_position.max(1)) as u64;
            match kinds[rng.below(kinds.len())] {
                StreamFaultKind::DisconnectMidFrame => PlannedDeliveryFault::Disconnect { at },
                StreamFaultKind::IndefiniteStall => PlannedDeliveryFault::Stall { at },
                StreamFaultKind::PartialFrame => PlannedDeliveryFault::PartialEof { at },
                _ => unreachable!("payload kinds filtered out above"),
            }
        };
        FaultyStream {
            inner,
            plan,
            delivered: 0,
            fired: None,
        }
    }

    /// Bytes faithfully delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    fn fault_at(&self) -> Option<(u64, StreamFaultKind)> {
        match self.plan {
            PlannedDeliveryFault::None => None,
            PlannedDeliveryFault::Disconnect { at } => {
                Some((at, StreamFaultKind::DisconnectMidFrame))
            }
            PlannedDeliveryFault::Stall { at } => Some((at, StreamFaultKind::IndefiniteStall)),
            PlannedDeliveryFault::PartialEof { at } => Some((at, StreamFaultKind::PartialFrame)),
        }
    }
}

impl<R: std::io::Read> std::io::Read for FaultyStream<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some((at, kind)) = self.fault_at() else {
            let n = self.inner.read(buf)?;
            self.delivered += n as u64;
            return Ok(n);
        };
        if self.delivered >= at {
            self.fired = Some(kind);
            return match kind {
                StreamFaultKind::DisconnectMidFrame => Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "injected disconnect mid-frame",
                )),
                // An indefinite stall: *every* read from here on times out.
                StreamFaultKind::IndefiniteStall => Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "injected indefinite stall",
                )),
                // The peer half-delivered a frame and closed cleanly.
                _ => Ok(0),
            };
        }
        // Never deliver past the scheduled fault position, so the fault
        // lands at a deterministic byte offset regardless of read sizes.
        let room = (at - self.delivered).min(buf.len() as u64) as usize;
        let n = self.inner.read(&mut buf[..room])?;
        self.delivered += n as u64;
        Ok(n)
    }
}

/// Convenience: corrupt `rate` of the records in `clean` with every fault
/// kind enabled, under `seed`.
pub fn corrupt_stream(clean: &[u8], seed: u64, rate: f64) -> (Vec<u8>, FaultLog) {
    FaultInjector::new(FaultConfig {
        seed,
        rate,
        ..FaultConfig::default()
    })
    .corrupt(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{Bgp4mpStateChange, BgpState, MrtRecord};
    use crate::writer::MrtWriter;
    use bgp_types::Asn;
    use std::net::IpAddr;

    fn clean_stream(n: u32) -> Vec<u8> {
        let rec = MrtRecord::StateChange(Bgp4mpStateChange {
            peer_asn: Asn::new(64500),
            local_asn: Asn::new(6447),
            if_index: 0,
            peer_addr: IpAddr::from([192, 0, 2, 2]),
            local_addr: IpAddr::from([192, 0, 2, 1]),
            old_state: BgpState::Idle,
            new_state: BgpState::Established,
        });
        let mut buf = Vec::new();
        let mut w = MrtWriter::new(&mut buf);
        for ts in 0..n {
            w.write_record(ts, &rec).unwrap();
        }
        buf
    }

    #[test]
    fn deterministic_for_same_seed() {
        let clean = clean_stream(50);
        let (a, la) = corrupt_stream(&clean, 7, 0.2);
        let (b, lb) = corrupt_stream(&clean, 7, 0.2);
        assert_eq!(a, b);
        assert_eq!(la.applied, lb.applied);
        let (c, _) = corrupt_stream(&clean, 8, 0.2);
        assert_ne!(a, c, "different seeds must corrupt differently");
    }

    #[test]
    fn rate_selects_expected_victim_count() {
        let clean = clean_stream(100);
        let (_, log) = corrupt_stream(&clean, 1, 0.1);
        assert_eq!(log.count(), 10);
        let (_, log) = corrupt_stream(&clean, 1, 0.0001);
        assert_eq!(log.count(), 1, "positive rate corrupts at least one");
        let (corrupted, log) = corrupt_stream(&clean, 1, 0.0);
        assert_eq!(log.count(), 0);
        assert_eq!(corrupted, clean);
    }

    #[test]
    fn body_local_faults_preserve_framing() {
        let clean = clean_stream(40);
        let inj = FaultInjector::new(FaultConfig {
            seed: 3,
            rate: 0.5,
            kinds: BODY_LOCAL_FAULT_KINDS.to_vec(),
        });
        let (corrupted, log) = inj.corrupt(&clean);
        assert!(!log.breaks_framing());
        assert_eq!(corrupted.len(), clean.len());
        // Every record still frames.
        assert_eq!(frame(&corrupted).len(), 40);
    }

    #[test]
    fn each_kind_applies_alone() {
        let clean = clean_stream(20);
        for &kind in ALL_FAULT_KINDS {
            let inj = FaultInjector::new(FaultConfig {
                seed: 11,
                rate: 0.25,
                kinds: vec![kind],
            });
            let (corrupted, log) = inj.corrupt(&clean);
            assert_eq!(log.count(), 5, "{kind:?}");
            assert!(log.applied.iter().all(|f| f.kind == kind));
            assert_ne!(corrupted, clean, "{kind:?} must change the bytes");
        }
    }

    #[test]
    fn flaky_reader_is_deterministic_and_preserves_bytes() {
        use std::io::Read;
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let cfg = FlakyConfig {
            seed: 9,
            interrupt_rate: 0.2,
            stall_rate: 0.0, // only retryable-without-policy faults here
            short_read_rate: 0.3,
        };
        let drain = |cfg: FlakyConfig| {
            let mut r = FlakyReader::new(&payload[..], cfg);
            let mut out = Vec::new();
            let mut buf = [0u8; 997];
            let mut injected = 0u64;
            loop {
                match r.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => out.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => injected += 1,
                    Err(e) => panic!("unexpected error kind: {e}"),
                }
            }
            assert_eq!(injected, r.faults_injected);
            (out, r.faults_injected, r.short_reads)
        };
        let (a, fa, sa) = drain(cfg.clone());
        let (b, fb, sb) = drain(cfg.clone());
        assert_eq!(a, payload, "delivery faults never corrupt bytes");
        assert_eq!((fa, sa), (fb, sb), "same seed, same schedule");
        assert_eq!(a, b);
        assert!(fa > 0 && sa > 0, "schedule must actually fire");
        let (c, _, _) = drain(cfg.reseeded(10));
        assert_eq!(c, payload, "different seed, same bytes");
    }

    #[test]
    fn flaky_stalls_surface_as_timed_out() {
        use std::io::Read;
        let payload = vec![0u8; 4096];
        let mut r = FlakyReader::new(
            &payload[..],
            FlakyConfig {
                seed: 4,
                interrupt_rate: 0.0,
                stall_rate: 1.0,
                short_read_rate: 0.0,
            },
        );
        let err = r.read(&mut [0u8; 64]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        assert_eq!(r.faults_injected, 1);
    }

    #[test]
    fn stream_payload_faults_are_deterministic() {
        let clean = clean_stream(60);
        let cfg = StreamFaultConfig {
            seed: 21,
            rate: 0.1,
            ..StreamFaultConfig::default()
        };
        let (a, la) = StreamFaultInjector::new(cfg.clone()).corrupt_delivery(&clean);
        let (b, lb) = StreamFaultInjector::new(cfg.clone()).corrupt_delivery(&clean);
        assert_eq!(a, b);
        assert_eq!(la.applied, lb.applied);
        assert_eq!(la.count(), 6);
        let (c, _) = StreamFaultInjector::new(cfg.reseeded(22)).corrupt_delivery(&clean);
        assert_ne!(a, c, "different seeds must damage differently");
    }

    #[test]
    fn duplicate_delivery_replays_whole_frames() {
        let clean = clean_stream(30);
        let inj = StreamFaultInjector::new(StreamFaultConfig {
            seed: 5,
            rate: 0.2,
            kinds: vec![StreamFaultKind::DuplicateDelivery],
            ..StreamFaultConfig::default()
        });
        let (out, log) = inj.corrupt_delivery(&clean);
        assert!(log.count() > 0);
        assert!(log
            .applied
            .iter()
            .all(|f| f.kind == StreamFaultKind::DuplicateDelivery));
        assert!(out.len() > clean.len(), "duplicates must add bytes");
        // Every frame in the damaged stream still frames cleanly, and the
        // damaged stream is a supersequence of duplicated clean records.
        let frames = frame(&out);
        let frame_len = frame(&clean)[0].1;
        assert!(frames.len() > 30);
        assert!(frames.iter().all(|&(_, t)| t == frame_len));
    }

    #[test]
    fn corrupt_burst_keeps_length_and_is_confined() {
        let clean = clean_stream(30);
        let inj = StreamFaultInjector::new(StreamFaultConfig {
            seed: 5,
            rate: 0.2,
            kinds: vec![StreamFaultKind::CorruptBurst],
            ..StreamFaultConfig::default()
        });
        let (out, log) = inj.corrupt_delivery(&clean);
        assert!(log.count() > 0);
        assert_eq!(out.len(), clean.len(), "bursts overwrite in place");
        assert_ne!(out, clean);
    }

    #[test]
    fn delivery_only_config_passes_payload_through() {
        let clean = clean_stream(10);
        let inj = StreamFaultInjector::new(StreamFaultConfig {
            seed: 5,
            rate: 1.0,
            kinds: DELIVERY_STREAM_FAULT_KINDS.to_vec(),
            ..StreamFaultConfig::default()
        });
        let (out, log) = inj.corrupt_delivery(&clean);
        assert_eq!(out, clean);
        assert_eq!(log.count(), 0);
    }

    #[test]
    fn faulty_stream_disconnects_at_deterministic_position() {
        use std::io::Read;
        let payload = vec![7u8; 100_000];
        let cfg = StreamFaultConfig {
            seed: 31,
            rate: 1.0,
            kinds: vec![StreamFaultKind::DisconnectMidFrame],
            mean_fault_position: 10_000,
        };
        let drain = |cfg: &StreamFaultConfig| {
            let mut s = FaultyStream::new(&payload[..], cfg);
            let mut out = Vec::new();
            let mut buf = [0u8; 4096];
            loop {
                match s.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => out.extend_from_slice(&buf[..n]),
                    Err(e) => {
                        assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset);
                        break;
                    }
                }
            }
            (out, s.fired)
        };
        let (a, fired_a) = drain(&cfg);
        let (b, fired_b) = drain(&cfg);
        assert_eq!(fired_a, Some(StreamFaultKind::DisconnectMidFrame));
        assert_eq!(fired_a, fired_b);
        assert_eq!(a, b, "same seed cuts at the same byte");
        assert!(!a.is_empty() && a.len() < payload.len());
        assert_eq!(a, payload[..a.len()], "delivered bytes stay faithful");
    }

    #[test]
    fn faulty_stream_stall_times_out_forever() {
        use std::io::Read;
        let payload = [1u8; 64];
        let mut s = FaultyStream::new(
            &payload[..],
            &StreamFaultConfig {
                seed: 2,
                rate: 1.0,
                kinds: vec![StreamFaultKind::IndefiniteStall],
                mean_fault_position: 8,
            },
        );
        let mut buf = [0u8; 64];
        let mut got = 0;
        loop {
            match s.read(&mut buf) {
                Ok(n) => got += n,
                Err(e) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::TimedOut);
                    break;
                }
            }
        }
        assert!(got < payload.len());
        // Indefinite: the stall persists on every subsequent read.
        for _ in 0..3 {
            assert_eq!(
                s.read(&mut buf).unwrap_err().kind(),
                std::io::ErrorKind::TimedOut
            );
        }
        assert_eq!(s.fired, Some(StreamFaultKind::IndefiniteStall));
    }

    #[test]
    fn faulty_stream_partial_frame_ends_with_clean_eof() {
        use std::io::Read;
        let payload = vec![9u8; 4096];
        let mut s = FaultyStream::new(
            &payload[..],
            &StreamFaultConfig {
                seed: 3,
                rate: 1.0,
                kinds: vec![StreamFaultKind::PartialFrame],
                mean_fault_position: 100,
            },
        );
        let mut out = Vec::new();
        let mut buf = [0u8; 512];
        loop {
            match s.read(&mut buf).expect("partial frame never errors") {
                0 => break,
                n => out.extend_from_slice(&buf[..n]),
            }
        }
        assert!(!out.is_empty() && out.len() < payload.len());
        assert_eq!(s.fired, Some(StreamFaultKind::PartialFrame));
        assert_eq!(s.delivered(), out.len() as u64);
    }

    #[test]
    fn faulty_stream_zero_rate_is_transparent() {
        use std::io::Read;
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let mut s = FaultyStream::new(
            &payload[..],
            &StreamFaultConfig {
                rate: 0.0,
                ..StreamFaultConfig::default()
            },
        );
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap();
        assert_eq!(out, payload);
        assert_eq!(s.fired, None);
    }

    #[test]
    fn empty_and_unframeable_inputs_pass_through() {
        let (out, log) = corrupt_stream(&[], 1, 0.5);
        assert!(out.is_empty() && log.count() == 0);
        let junk = vec![1, 2, 3, 4, 5];
        let (out, log) = corrupt_stream(&junk, 1, 0.5);
        assert_eq!(out, junk);
        assert_eq!(log.count(), 0);
    }
}
