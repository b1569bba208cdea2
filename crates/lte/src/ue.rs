//! The UE side of the LTE uplink: everything about a UE that is not the
//! grant law.
//!
//! The scalar [`crate::uplink::CellUplink`] and the PF [`crate::cell::Cell`]
//! each decide in their own way *how many bits a UE may send this
//! subframe*. What the eNodeB knew of the UE's backlog when it decided,
//! and what the UE does with the grant, is one machine under both and
//! lives here: [`BsrPipeline`] is the MAC state that dies with the serving
//! cell, [`UeBearer`] is what a UE carries across a handover.

use crate::buffer::{FirmwareBuffer, PacketLike};
use crate::diag::{DiagInterface, DiagReport, DiagSample};
use poi360_sim::time::SimTime;

/// The deepest BSR pipeline a UE holds, one radio frame: the capacity of
/// its inline ring, so `bsr_delay_subframes` may not exceed it (asserted
/// when the pipeline is built).
pub(crate) const MAX_BSR_DELAY_SUBFRAMES: usize = 10;

/// The buffer-status-report pipeline: the eNodeB grants against the queue
/// level a UE had `delay` subframes ago. A fixed ring of `delay` slots:
/// `filled` levels are in flight, and `cursor` is where the next one goes
/// — which, once all `delay` are, is the slot of the oldest.
#[derive(Clone, Debug)]
pub(crate) struct BsrPipeline {
    slots: [u64; MAX_BSR_DELAY_SUBFRAMES],
    cursor: u8,
    filled: u8,
    delay: u8,
    /// Outage state of the previous subframe, for edge detection.
    was_in_outage: bool,
}

impl BsrPipeline {
    /// An empty pipeline `delay_subframes` (at least one, at most
    /// [`MAX_BSR_DELAY_SUBFRAMES`]) deep.
    pub(crate) fn new(delay_subframes: usize) -> Self {
        assert!(
            delay_subframes <= MAX_BSR_DELAY_SUBFRAMES,
            "bsr_delay_subframes {delay_subframes} over {MAX_BSR_DELAY_SUBFRAMES}"
        );
        BsrPipeline {
            slots: [0; MAX_BSR_DELAY_SUBFRAMES],
            cursor: 0,
            filled: 0,
            delay: delay_subframes.max(1) as u8,
            was_in_outage: false,
        }
    }

    /// One subframe: `level` enters, and the level the eNodeB acts on comes
    /// out — 0 until a report has made it through. The subframe an outage
    /// begins empties the pipeline: a handover (or a radio link failure)
    /// moves the UE to a serving cell that has no BSR state yet, so the
    /// backlog must be re-reported from scratch. No grant is due during an
    /// outage, whatever comes out.
    pub(crate) fn turn(&mut self, level: u64, in_outage: bool) -> u64 {
        let slot = &mut self.slots[usize::from(self.cursor)];
        let reported = if self.filled == self.delay {
            *slot
        } else {
            self.filled += 1;
            0
        };
        *slot = level;
        self.cursor = if self.cursor + 1 == self.delay { 0 } else { self.cursor + 1 };
        if in_outage && !self.was_in_outage {
            self.reset();
        }
        self.was_in_outage = in_outage;
        reported
    }

    /// Forget every report in flight (RRC re-establishment). The cursor
    /// may stay: the next `delay` levels fill the ring from it round to it.
    pub(crate) fn reset(&mut self) {
        self.filled = 0;
    }

    /// Full of zeros: zeros will keep coming out for as long as zeros go in.
    pub(crate) fn is_quiet(&self) -> bool {
        self.filled == self.delay
            && self.slots[..usize::from(self.delay)].iter().all(|&level| level == 0)
    }
}

/// A foreground UE's firmware-buffer capacity in either uplink model, bytes.
pub const FW_CAPACITY_BYTES: u64 = 512 * 1024;

/// What a foreground UE owns whichever cell serves it: the firmware buffer
/// with every queued packet, and the diag interface that logs it.
#[derive(Clone)]
pub(crate) struct UeBearer<T> {
    fw: FirmwareBuffer<T>,
    diag: DiagInterface,
    /// Frozen `(buffer_bytes, tbs_bits)` while a diag stall is active.
    stale_diag: Option<(u64, u32)>,
}

impl<T: PacketLike> UeBearer<T> {
    pub(crate) fn new() -> Self {
        UeBearer {
            fw: FirmwareBuffer::new(FW_CAPACITY_BYTES),
            diag: DiagInterface::new(DiagInterface::DEFAULT_PERIOD),
            stale_diag: None,
        }
    }

    /// The firmware buffer (level, drop and conservation counters).
    pub(crate) fn fw(&self) -> &FirmwareBuffer<T> {
        &self.fw
    }

    /// Offer a packet to the firmware buffer; false on overflow drop.
    pub(crate) fn enqueue(&mut self, item: T, now: SimTime) -> bool {
        self.fw.enqueue(item, now)
    }

    /// Spend one subframe's grant (0 for none, or one lost to HARQ): serve
    /// the firmware buffer into `departed`, and log the subframe on the
    /// diag interface. Returns the buffer level at the start of the
    /// subframe (what the chipset logs), the TBS and, when the subframe
    /// closes a diag epoch, the report. The level is read here, after
    /// anything the caller did to the buffer this subframe, so a subframe
    /// cannot log a level it did not serve from.
    pub(crate) fn transmit(
        &mut self,
        now: SimTime,
        grant_bits: u32,
        diag_stall: bool,
        departed: &mut Vec<(T, SimTime)>,
    ) -> (u64, u32, Option<DiagReport>) {
        let buffer_bytes = self.fw.level_bytes();
        self.fw.serve_into(grant_bits / 8, departed);
        let served_bits =
            departed.iter().map(|(p, _)| p.wire_bytes()).sum::<u32>().saturating_mul(8);
        // TBS reflects the grant actually used: bounded by both the grant
        // and what was in the buffer.
        let tbs_bits = grant_bits.min(served_bits.max(grant_bits.min((buffer_bytes * 8) as u32)));
        // A diag stall freezes what the chipset *logs* (FBCC sees stale
        // repeated samples) while the link itself keeps moving packets.
        let (logged_bytes, logged_tbs) = if diag_stall {
            *self.stale_diag.get_or_insert((buffer_bytes, tbs_bits))
        } else {
            self.stale_diag = None;
            (buffer_bytes, tbs_bits)
        };
        let sample = DiagSample { at: now, buffer_bytes: logged_bytes, tbs_bits: logged_tbs };
        (buffer_bytes, tbs_bits, self.diag.record(sample))
    }

    /// RRC re-establishment after a radio link failure: everything queued
    /// is lost, not delivered seconds late. Returns the packets flushed.
    pub(crate) fn reestablish(&mut self) -> u64 {
        self.fw.flush()
    }

    /// Rewind any partial service of the head packet (a handover loses the
    /// RLC context: [`crate::cell::MigratedUe::restart_head`]).
    pub(crate) fn restart_head(&mut self) {
        self.fw.restart_head();
    }

    /// Return a consumed diag report's sample storage for epoch reuse.
    pub(crate) fn recycle_diag(&mut self, report: DiagReport) {
        self.diag.recycle(report);
    }
}
