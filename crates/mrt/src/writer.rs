//! Streaming MRT writer.

use std::io::Write;
use std::net::IpAddr;

use bgp_types::{Asn, Prefix, RouteAttrs};

use crate::attrs::{AttrCtx, EncodeOpts};
use crate::bgpmsg;
use crate::error::MrtError;
use crate::records::{self, MrtRecord, SUBTYPE_BGP4MP_MESSAGE_AS4, TYPE_BGP4MP};

/// Writes MRT records (RFC 6396 common header + body) to any [`Write`].
///
/// The writer is format-only: callers are responsible for ordering (e.g. the
/// `PEER_INDEX_TABLE` before RIB records, as collectors do).
#[derive(Debug)]
pub struct MrtWriter<W> {
    inner: W,
    records_written: u64,
}

impl<W: Write> MrtWriter<W> {
    /// Wrap an output stream.
    pub fn new(inner: W) -> Self {
        MrtWriter {
            inner,
            records_written: 0,
        }
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Consume the writer, returning the underlying stream.
    pub fn into_inner(self) -> W {
        self.inner
    }

    fn write_raw(
        &mut self,
        timestamp: u32,
        mrt_type: u16,
        subtype: u16,
        body: &[u8],
    ) -> Result<(), MrtError> {
        if body.len() > u32::MAX as usize {
            return Err(MrtError::TooLong {
                context: "MRT record body",
                len: body.len(),
            });
        }
        self.inner.write_all(&timestamp.to_be_bytes())?;
        self.inner.write_all(&mrt_type.to_be_bytes())?;
        self.inner.write_all(&subtype.to_be_bytes())?;
        self.inner.write_all(&(body.len() as u32).to_be_bytes())?;
        self.inner.write_all(body)?;
        self.records_written += 1;
        Ok(())
    }

    /// Write one record with the given header timestamp.
    pub fn write_record(&mut self, timestamp: u32, record: &MrtRecord) -> Result<(), MrtError> {
        let (t, s, body) = records::encode_body(record)?;
        self.write_raw(timestamp, t, s, &body)
    }

    /// Write a `BGP4MP_MESSAGE_AS4` record carrying an UPDATE that announces
    /// `announced` with attributes `route` and withdraws `withdrawn`.
    ///
    /// IPv6 prefixes are routed into MP_REACH/MP_UNREACH automatically.
    #[allow(clippy::too_many_arguments)]
    pub fn write_update(
        &mut self,
        timestamp: u32,
        peer_asn: Asn,
        local_asn: Asn,
        peer_addr: IpAddr,
        local_addr: IpAddr,
        route: &RouteAttrs,
        announced: &[Prefix],
        withdrawn: &[Prefix],
    ) -> Result<(), MrtError> {
        let (v4a, v6a): (Vec<Prefix>, Vec<Prefix>) = announced.iter().partition(|p| p.is_ipv4());
        let (v4w, v6w): (Vec<Prefix>, Vec<Prefix>) = withdrawn.iter().partition(|p| p.is_ipv4());
        let opts = EncodeOpts {
            mp_announced: v6a,
            mp_withdrawn: v6w,
            aggregator: None,
        };
        let msg = bgpmsg::encode_update(route, AttrCtx::BGP4MP_AS4, &opts, &v4a, &v4w)?;
        let body =
            records::encode_message_body(peer_asn, local_asn, 0, peer_addr, local_addr, &msg)?;
        self.write_raw(timestamp, TYPE_BGP4MP, SUBTYPE_BGP4MP_MESSAGE_AS4, &body)
    }

    /// Flush the underlying stream.
    pub fn flush(&mut self) -> Result<(), MrtError> {
        self.inner.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgpmsg::BgpMessage;
    use crate::recover::RecoveringReader;
    use bgp_types::{AsPath, Community};

    fn sample_route() -> RouteAttrs {
        let mut route = RouteAttrs::originated(
            AsPath::from_sequence([Asn::new(64500), Asn::new(1299)]),
            IpAddr::from([192, 0, 2, 2]),
        );
        route.add_community(Community::new(1299, 2569));
        route
    }

    fn write_sample(w: &mut MrtWriter<impl Write>, timestamp: u32) -> Result<(), MrtError> {
        w.write_update(
            timestamp,
            Asn::new(64500),
            Asn::new(6447),
            IpAddr::from([192, 0, 2, 2]),
            IpAddr::from([192, 0, 2, 1]),
            &sample_route(),
            &["192.0.2.0/24".parse().unwrap()],
            &[],
        )
    }

    #[test]
    fn the_common_header_is_big_endian_and_counts_the_body() {
        let mut w = MrtWriter::new(Vec::new());
        write_sample(&mut w, 0x0102_0304).unwrap();
        let buf = w.into_inner();
        assert_eq!(buf[..4], [1, 2, 3, 4]);
        assert_eq!(buf[4..6], TYPE_BGP4MP.to_be_bytes());
        assert_eq!(buf[6..8], SUBTYPE_BGP4MP_MESSAGE_AS4.to_be_bytes());
        let len = u32::from_be_bytes(buf[8..12].try_into().unwrap()) as usize;
        assert_eq!(len, buf.len() - 12);
    }

    #[test]
    fn records_follow_each_other_in_write_order() {
        let mut w = MrtWriter::new(Vec::new());
        for t in [30, 10, 20] {
            write_sample(&mut w, t).unwrap();
        }
        w.flush().unwrap();
        assert_eq!(w.records_written(), 3);
        let buf = w.into_inner();
        let times: Vec<u32> = RecoveringReader::new(&buf[..])
            .map(|r| r.unwrap().timestamp)
            .collect();
        assert_eq!(times, vec![30, 10, 20], "the writer never reorders");
    }

    /// A sink that accepts `room` bytes, then fails every write.
    struct FullDisk {
        room: usize,
    }

    impl Write for FullDisk {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.room == 0 {
                return Err(std::io::Error::other("no space left"));
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failing_sink_is_an_io_error_and_no_record_is_counted() {
        for room in [0, 5, 40] {
            let mut w = MrtWriter::new(FullDisk { room });
            let err = write_sample(&mut w, 1).unwrap_err();
            assert!(matches!(err, MrtError::Io(_)), "room {room}: {err:?}");
            assert_eq!(w.records_written(), 0, "room {room}");
        }
    }

    #[test]
    fn update_writer_reader_roundtrip() {
        let mut route = RouteAttrs::originated(
            AsPath::from_sequence([Asn::new(64500), Asn::new(1299)]),
            IpAddr::from([192, 0, 2, 2]),
        );
        route.add_community(Community::new(1299, 2569));
        let announced: Vec<Prefix> = vec![
            "192.0.2.0/24".parse().unwrap(),
            "2001:db8:200::/48".parse().unwrap(),
        ];
        let withdrawn: Vec<Prefix> = vec!["198.51.100.0/24".parse().unwrap()];

        let mut buf = Vec::new();
        let mut w = MrtWriter::new(&mut buf);
        w.write_update(
            1_682_899_200,
            Asn::new(64500),
            Asn::new(6447),
            IpAddr::from([192, 0, 2, 2]),
            IpAddr::from([192, 0, 2, 1]),
            &route,
            &announced,
            &withdrawn,
        )
        .unwrap();
        assert_eq!(w.records_written(), 1);

        let rec = RecoveringReader::new(&buf[..]).next().unwrap().unwrap();
        assert_eq!(rec.timestamp, 1_682_899_200);
        match rec.record {
            MrtRecord::Message(m) => {
                assert_eq!(m.peer_asn, Asn::new(64500));
                match m.message {
                    BgpMessage::Update(u) => {
                        let got: Vec<Prefix> = u.all_announced().copied().collect();
                        assert_eq!(got.len(), 2);
                        assert!(got.contains(&announced[0]));
                        assert!(got.contains(&announced[1]));
                        assert_eq!(u.withdrawn, withdrawn);
                        let attrs = u.attrs.unwrap();
                        assert_eq!(attrs.route.communities, route.communities);
                        assert_eq!(attrs.route.as_path, route.as_path);
                    }
                    other => panic!("expected update, got {other:?}"),
                }
            }
            other => panic!("expected message, got {other:?}"),
        }
    }
}
