//! Read-only memory mapping through `mmap(2)`.
//!
//! The build environment has no crate registry, so no `memmap2`: [`Mmap`]
//! calls `mmap(2)` directly and dereferences to `&[u8]` whose base address
//! is page-aligned, so suitably aligned for `u64` access. An empty file,
//! which `mmap(2)` refuses to map, is a zero-length view with no mapping
//! behind it.

use std::fs::File;
use std::io;
use std::os::unix::io::AsRawFd;

/// A read-only view of an entire file.
pub struct Mmap {
    ptr: *const u8,
    len: usize,
}

// SAFETY: `ptr`/`len` are a private, read-only mapping (or an empty view)
// that lives until `Drop` and is never written through, so moving or
// sharing the view across threads cannot race.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

impl Mmap {
    /// Map `file` read-only in its entirety.
    ///
    /// # Errors
    ///
    /// Any `mmap(2)` failure (an empty file maps nothing and cannot fail
    /// for that reason).
    pub fn map_readonly(file: &File) -> io::Result<Mmap> {
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| io::Error::new(io::ErrorKind::OutOfMemory, "file too large to map"))?;
        if len == 0 {
            return Ok(Mmap {
                ptr: std::ptr::NonNull::<u64>::dangling().as_ptr().cast(),
                len,
            });
        }
        // SAFETY: fd is a valid open file, length matches its size,
        // and the mapping is private + read-only; unmapped in Drop.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap {
            ptr: ptr as *const u8,
            len,
        })
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // SAFETY: the mapping is live for self's lifetime; an empty view
        // is a dangling, aligned pointer of length 0.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: ptr/len came from a successful mmap.
            unsafe {
                sys::munmap(self.ptr as *mut std::os::raw::c_void, self.len);
            }
        }
    }
}

/// View an 8-aligned, 8-multiple byte region as little-endian u64 words.
///
/// # Panics
/// Panics if `bytes` is misaligned or not a multiple of 8 long.
pub fn as_u64s(bytes: &[u8]) -> &[u64] {
    assert_eq!(bytes.len() % 8, 0, "length not a multiple of 8");
    assert_eq!(bytes.as_ptr() as usize % 8, 0, "base address misaligned");
    const { assert!(cfg!(target_endian = "little"), "formats are little-endian") };
    // SAFETY: alignment and length checked above; u64 has no invalid bit
    // patterns; the lifetime is inherited from `bytes`.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u64, bytes.len() / 8) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("kron_mmap_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn maps_file_contents() {
        let path = tmp("words.bin");
        let words: Vec<u64> = (0..1000u64)
            .map(|x| x.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let mut f = File::create(&path).unwrap();
        for w in &words {
            f.write_all(&w.to_le_bytes()).unwrap();
        }
        drop(f);
        let map = Mmap::map_readonly(&File::open(&path).unwrap()).unwrap();
        assert_eq!(map.len(), 8000);
        assert_eq!(as_u64s(&map), &words[..]);
    }

    #[test]
    fn empty_file_maps_empty() {
        let path = tmp("empty.bin");
        File::create(&path).unwrap();
        let map = Mmap::map_readonly(&File::open(&path).unwrap()).unwrap();
        assert!(map.is_empty());
        assert_eq!(
            as_u64s(&map),
            &[] as &[u64],
            "an empty view is still aligned"
        );
    }
}
