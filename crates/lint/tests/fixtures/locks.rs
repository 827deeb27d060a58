//! Fixture: the S-lock rule — guards discarded at the binding site fire;
//! named, scoped guards and argument-taking I/O `write` calls do not.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock};

pub fn discarded(m: &Mutex<u32>, rw: &RwLock<u32>) {
    let _ = m.lock();
    let _ = rw.read();
    let _ = rw.write();
}

/// The sanctioned shape: a named guard scoped over the protected work.
pub fn scoped(m: &Mutex<u32>) -> u32 {
    let guard = m.lock().unwrap_or_else(PoisonError::into_inner);
    *guard
}

/// `Write::write` takes a buffer; it returns bytes written, not a guard.
pub fn io_write_is_not_a_guard(out: &mut Vec<u8>, buf: &[u8]) {
    use std::io::Write;
    let _ = out.write(buf);
}

/// A guard that lives only inside its initializer is dropped at the `;`,
/// so locking again in the next statement is not a re-acquisition.
pub fn temporary_in_initializer(m: &Mutex<Vec<u32>>) -> usize {
    let first = lock(m).first().copied();
    lock(m).push(first.unwrap_or(0));
    lock(m).len()
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
