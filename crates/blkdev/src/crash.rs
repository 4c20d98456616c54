//! A RAM-backed device that loses every write a flush never covered.

use std::collections::VecDeque;
use std::time::Duration;

use parking_lot::Mutex;

use crate::{check_range, BlockDevice, RamDisk, Result};

/// A [`RamDisk`] that also keeps the image a power cut would leave.
///
/// Reads see every completed write, as on a device with a volatile write
/// cache. The crash image holds only the writes that completed before
/// some flush began and no others — all that a flush promises. This is
/// the *flushed-only* crash mode: writes a flush did not cover vanish
/// whole, neither reordered nor torn. [`CrashDisk::crash`] reverts the
/// device to its crash image. A flush takes a set time, and a crash
/// before it completes keeps none of what it was to cover.
///
/// # Examples
///
/// ```
/// use blkdev::{BlockDevice, CrashDisk};
///
/// let disk = CrashDisk::new(4096);
/// disk.write_at(0, b"kept").unwrap();
/// disk.flush().unwrap();
/// disk.write_at(512, b"lost").unwrap();
/// disk.crash();
/// let mut buf = [0u8; 4];
/// disk.read_at(0, &mut buf).unwrap();
/// assert_eq!(&buf, b"kept");
/// disk.read_at(512, &mut buf).unwrap();
/// assert_eq!(buf, [0; 4]);
/// ```
pub struct CrashDisk {
    live: RamDisk,
    durable: Mutex<Durable>,
    flush_time: Duration,
}

struct Durable {
    /// What a crash leaves.
    image: Vec<u8>,
    /// Completed writes not yet in `image`, oldest first.
    pending: VecDeque<(u64, Vec<u8>)>,
    /// Writes completed so far, and how many of them are in `image`.
    completed: u64,
    applied: u64,
}

impl CrashDisk {
    /// Creates a zero-filled device of `capacity` bytes whose flushes
    /// complete at once.
    pub fn new(capacity: u64) -> Self {
        Self::with_flush_time(capacity, Duration::ZERO)
    }

    /// Like [`CrashDisk::new`], but each flush takes `flush_time`: a
    /// crash meanwhile keeps none of the writes it was to cover.
    pub fn with_flush_time(capacity: u64, flush_time: Duration) -> Self {
        CrashDisk {
            live: RamDisk::new(capacity),
            durable: Mutex::new(Durable {
                image: vec![0; capacity as usize],
                pending: VecDeque::new(),
                completed: 0,
                applied: 0,
            }),
            flush_time,
        }
    }

    /// Cuts the power: every write no completed flush covered is gone, and
    /// the device reads back its crash image from now on.
    pub fn crash(&self) {
        let mut d = self.durable.lock();
        d.pending.clear();
        d.applied = d.completed;
        self.live
            .write_at(0, &d.image)
            .expect("the crash image spans the device");
    }
}

impl BlockDevice for CrashDisk {
    fn capacity(&self) -> u64 {
        self.live.capacity()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.live.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        check_range(offset, data.len(), self.capacity())?;
        // Under the lock, so a flush that begins after this returns
        // counts it.
        let mut d = self.durable.lock();
        self.live.write_at(offset, data)?;
        d.pending.push_back((offset, data.to_vec()));
        d.completed += 1;
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        // A flush covers the writes completed when it begins. A crash
        // while it runs drops them, so only a flush that completes
        // applies them.
        let cut = self.durable.lock().completed;
        std::thread::sleep(self.flush_time);
        let mut d = self.durable.lock();
        while d.applied < cut {
            let (offset, data) = d.pending.pop_front().expect("a write the flush covers");
            let off = offset as usize;
            d.image[off..off + data.len()].copy_from_slice(&data);
            d.applied += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_crash_keeps_flushed_writes_and_drops_the_rest() {
        let d = CrashDisk::new(8192);
        d.write_at(0, &[1; 512]).unwrap();
        d.write_at(512, &[2; 512]).unwrap();
        d.flush().unwrap();
        d.write_at(0, &[3; 512]).unwrap();
        d.write_at(1024, &[4; 512]).unwrap();
        let mut buf = [0u8; 512];
        d.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [3; 512], "reads see unflushed writes");
        d.crash();
        for (off, want) in [(0, 1), (512, 2), (1024, 0)] {
            d.read_at(off, &mut buf).unwrap();
            assert_eq!(buf, [want; 512], "offset {off}");
        }
        // The device keeps working after the crash.
        d.write_at(1024, &[5; 512]).unwrap();
        d.flush().unwrap();
        d.crash();
        d.read_at(1024, &mut buf).unwrap();
        assert_eq!(buf, [5; 512]);
    }

    #[test]
    fn a_crash_during_a_flush_keeps_none_of_its_writes() {
        let d = std::sync::Arc::new(CrashDisk::with_flush_time(4096, Duration::from_millis(200)));
        d.write_at(0, &[1; 512]).unwrap();
        let flusher = {
            let d = d.clone();
            std::thread::spawn(move || d.flush())
        };
        // Under the flush time, well before the flush completes.
        std::thread::sleep(Duration::from_millis(20));
        d.crash();
        flusher.join().unwrap().unwrap();
        let mut buf = [9u8; 512];
        d.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [0; 512]);
    }

    #[test]
    fn rejects_out_of_range_writes() {
        let d = CrashDisk::new(1024);
        assert!(d.write_at(1000, &[0; 512]).is_err());
        d.flush().unwrap();
        d.crash();
    }
}
